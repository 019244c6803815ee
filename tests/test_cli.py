import argparse
import importlib
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import parse_csv
import l1coreg
from l1coreg import cli, experiments
from l1coreg.basis import WaveletBasis
from l1coreg.cli import (
    EXIT_CERT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config_text,
)
from l1coreg.experiments import (
    _MAX_SEED,
    SweepConfig,
    default_operators,
    determinism_hash,
    make_phantom,
    run_sweep,
)
from l1coreg.solvers import SolverError, solve


SMALL = ["--n", "32", "--m", "24", "--sparsity", "2", "--seed", "1",
         "--forward", "identity"]


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestUsageErrors:
    def test_missing_model(self, capsys):
        rc, _, err = run_cli(["solve", "--n", "16"], capsys)
        assert rc == EXIT_USAGE
        assert "usage" in err

    def test_no_command(self, capsys):
        rc, _, err = run_cli([], capsys)
        assert rc == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        rc, _, err = run_cli(["solve", "--model", "relaxed", "--bogus", "1"], capsys)
        assert rc == EXIT_USAGE

    def test_bad_value_reported(self, capsys):
        rc, _, err = run_cli(["solve", "--model", "relaxed", "--n", "notint"], capsys)
        assert rc == EXIT_USAGE
        assert "--n" in err or "notint" in err

    def test_materialize_budget_is_usage_error(self, capsys):
        # every solve builds its coupling from dense W and A, so solves stop
        # at the same budget as certify
        size = ["--n", "8192", "--m", "16", "--sparsity", "2"]
        for command in (["certify"], ["solve", "--model", "strict"],
                        ["solve", "--model", "relaxed"]):
            rc, _, err = run_cli(command + size, capsys)
            assert rc == EXIT_USAGE, command
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_sensing_budget_checked_before_draw(self, capsys):
        # 262145 x 64 entries is just over the budget; the sensing matrix
        # is refused before it is drawn
        rc, _, err = run_cli(["certify", "--n", "64", "--m", "262145"], capsys)
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infinite_kappa_is_usage_error(self, tmp_path, capsys):
        args = ["--n", "16", "--m", "8", "--sparsity", "1", "--kappa", "inf"]
        for command in (["solve", "--model", "strict", "--out",
                         str(tmp_path / "out")], ["certify"]):
            rc, _, err = run_cli(command + args, capsys)
            assert rc == EXIT_USAGE, command
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["solve", "--model", "relaxed"],
        ["certify"],
        ["sweep", "--model", "relaxed", "--deltas", "1e-2,1e-3", "--trials", "1"],
    ], ids=["solve", "certify", "sweep"])
    def test_zero_measurements_is_usage_error(self, tmp_path, capsys, command):
        args = command + ["--n", "16", "--m", "0", "--sparsity", "2"]
        if command[0] != "certify":
            args += ["--out", str(tmp_path / "out")]
        rc, _, err = run_cli(args, capsys)
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(_MAX_SEED + 1)],
                             ids=["negative", "key-overflow"])
    @pytest.mark.parametrize("command", [
        ["certify"],
        ["sweep", "--model", "relaxed", "--deltas", "1e-2,1e-3", "--trials", "1"],
    ], ids=["certify", "sweep"])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, command,
                                              seed):
        # refused with our own message, not numpy's Philox key error
        args = command + ["--n", "16", "--m", "8", "--sparsity", "2",
                          "--seed", seed]
        if command[0] == "sweep":
            args += ["--out", str(tmp_path / "s.csv")]
        rc, _, err = run_cli(args, capsys)
        assert rc == EXIT_USAGE
        assert err == f"error: seed must lie in [0, {_MAX_SEED}]\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("noise", [
        ["--deltas", "nan,1e-3"],
        ["--deltas", "inf,1e-3"],
        ["--delta-max", "nan"],
        ["--delta-min", "inf"],
        ["--delta-max", "inf"],
        ["--delta-max", "0"],
        ["--delta-min=-1e-5"],
        ["--delta-count", "-1"],
        ["--deltas", ""],
    ], ids=["nan", "inf", "delta-max-nan", "delta-min-inf", "delta-max-inf",
            "delta-max-zero", "delta-min-negative", "delta-count-negative",
            "deltas-empty"])
    def test_non_finite_noise_level_is_usage_error(self, tmp_path, capsys, noise):
        # the noise grid is checked before it is built, so numpy neither
        # warns nor reports a bad sample count; an empty --deltas is an
        # empty grid, not the default one
        rc, _, err = run_cli(
            ["sweep", "--model", "relaxed", *SMALL, "--trials", "1", *noise,
             "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert rc == EXIT_USAGE
        expected = ("deltas must be nonempty"
                    if "--delta-count" in noise or "" in noise
                    else "all noise levels must be positive and finite")
        assert err == f"error: {expected}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_noise_level_cap_before_grid(self, tmp_path, capsys):
        # the count is refused before any level is allocated
        tracemalloc.start()
        try:
            rc, _, err = run_cli(
                ["sweep", "--model", "relaxed", *SMALL, "--trials", "1",
                 "--delta-count", "200000", "--out", str(tmp_path / "s.csv")],
                capsys,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_USAGE
        assert err == "error: at most 9000 noise levels per sweep\n"
        assert peak < 1_000_000

    @pytest.mark.parametrize("command", [
        ["solve", "--model", "relaxed", "--tol", "inf"],
        ["solve", "--model", "relaxed", "--rho", "inf"],
        ["certify", "--C", "inf"],
        ["sweep", "--model", "relaxed", "--C", "inf", "--trials", "1",
         "--delta-count", "2"],
    ], ids=["solve-tol", "solve-rho", "certify-C", "sweep-C"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, command):
        # each once ran to a "converged" or "valid" nan result, or died
        # on a numpy warning
        args = command + ["--n", "16", "--m", "8", "--sparsity", "2"]
        if command[0] != "certify":
            args += ["--out", str(tmp_path / "out")]
        rc, stdout, err = run_cli(args, capsys)
        assert rc == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, key, value", [
        (["sweep", "--model", "relaxed", "--deltas", "1e-1,1e-2", "--trials", "1"],
         "svg", "{tmp}/s.svg"),
        (["sweep", "--model", "relaxed", "--deltas", "1e-1,1e-2", "--trials", "1"],
         "sensing", "bernoulli"),
        (["solve", "--model", "relaxed"], "alpha", "1e-3"),
    ], ids=["svg", "sensing", "alpha"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_retired_input_refused(self, tmp_path, capsys, command, key, value,
                                   source):
        # the plot, the choice of sensing matrix and the alpha override are
        # gone: neither the flag nor a config key that sets one (every old
        # config block holds sensing = bernoulli) runs without notice
        value = value.format(tmp=tmp_path)
        if source == "flag":
            extra = [f"--{key}", value]
        else:
            cfg = tmp_path / "retired.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        rc, stdout, err = run_cli(
            [*command, *SMALL, *extra, "--out", str(tmp_path / "out")], capsys
        )
        assert rc == EXIT_USAGE
        assert stdout == ""
        assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["retired.cfg"] if source == "config" else []
        )

    def test_sweep_config_checked_before_instance(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_build(args):
            pytest.fail("instance built before the sweep config was checked")

        monkeypatch.setattr(cli, "_build_instance", no_build)
        rc, _, err = run_cli(
            ["sweep", "--model", "relaxed", *SMALL, "--trials", "1",
             "--deltas", "nan,1e-3", "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "relaxed", "--tol", "nan"],
        ["sweep", "--model", "relaxed", "--rho", "0"],
        ["solve", "--model", "relaxed", "--max-iters", "0", "--trace", "t.csv"],
    ], ids=["sweep-tol", "sweep-rho", "solve-max-iters"])
    def test_solver_config_checked_before_instance(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        # a bad solver setting is refused before Phi, W, A or the phantom is
        # built and before any output or trace file is opened
        def no_build(*args):
            pytest.fail("instance built before the solver config was checked")

        monkeypatch.setattr(cli, "WaveletBasis", no_build)
        monkeypatch.chdir(tmp_path)
        rc, _, err = run_cli([*argv, *SMALL], capsys)
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def _failing_solve(*args, **kwargs):
    raise SolverError("non-finite iterate at iteration 1")


class TestSolveFailure:
    """A solve that raises exits 2, like one that does not converge."""

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("l1coreg.experiments.solve", _failing_solve)
        rc, _, err = run_cli(
            ["sweep", "--model", "relaxed", *SMALL, "--trials", "1",
             "--no-certify", "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert rc == EXIT_NOT_CONVERGED
        assert err.startswith("error: solve failed at delta=0.01 trial=0: ")
        assert err.count("\n") == 1

    def test_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("l1coreg.experiments.solve", _failing_solve)
        rc, _, err = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--out", str(tmp_path / "o")],
            capsys,
        )
        assert rc == EXIT_NOT_CONVERGED
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSolve:
    def test_writes_solutions(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--out", str(out)],
            capsys,
        )
        assert rc == EXIT_OK
        x = np.loadtxt(out / "x.txt")
        h = np.loadtxt(out / "h.txt")
        assert x.shape == (32,)
        assert h.shape == (32,)
        assert "converged = true" in stdout
        assert "objective = " in stdout
        summary = parse_config_text(stdout)
        assert float(summary["rho_final"]) > 0
        assert int(summary["rebuilds"]) >= 0
        assert summary["rho"] == "1.0"  # the starting value, replayed as given

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_written_h_is_the_one_err_h_measures(self, tmp_path, capsys, model):
        # the strict estimate is W x, not the split copy h of the solver
        out = tmp_path / "run"
        rc, stdout, _ = run_cli(
            ["solve", "--model", model, *SMALL, "--delta", "1e-4",
             "--out", str(out)],
            capsys,
        )
        assert rc == EXIT_OK
        cfg = SweepConfig(n=32, m=24, sparsity=2, deltas=(1.0,), seed=1)
        basis = WaveletBasis(32)
        w, _ = default_operators(cfg, forward="identity")
        phantom = make_phantom(32, 2, cfg.phantom_seed(), basis, w)
        h = np.loadtxt(out / "h.txt")
        err_h = float(np.linalg.norm(h - phantom.h_star))
        assert err_h == float(parse_config_text(stdout)["err_h"])

    def test_zero_delta_refused(self, tmp_path, capsys):
        # a solve is a one-level sweep, whose noise level must be positive
        rc, stdout, err = run_cli(
            ["solve", "--model", "strict", *SMALL, "--delta", "0",
             "--out", str(tmp_path / "r")],
            capsys,
        )
        assert rc == EXIT_USAGE
        assert stdout == ""
        assert err == "error: all noise levels must be positive and finite\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("forward", ["identity", "integration"])
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_solve_is_the_sweeps_first_record(self, tmp_path, capsys,
                                              monkeypatch, model, forward):
        # solve --delta d runs record (0, 0) of sweep --deltas d --trials 1
        instance = ["--model", model, "--n", "32", "--m", "24", "--sparsity",
                    "2", "--seed", "1", "--forward", forward]
        rc, stdout, _ = run_cli(
            ["solve", *instance, "--delta", "1e-2", "--out", str(tmp_path / "o")],
            capsys,
        )
        solved = parse_config_text(stdout)
        swept = []

        def spy(*args, **kwargs):
            swept.append(solve(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(experiments, "solve", spy)
        csv = tmp_path / "s.csv"
        rc_sweep, _, _ = run_cli(
            ["sweep", *instance, "--deltas", "1e-2", "--trials", "1",
             "--no-certify", "--out", str(csv)],
            capsys,
        )
        [record], _, _ = parse_csv(csv)
        assert rc == rc_sweep == EXIT_OK
        assert solved["alpha"] == repr(record.alpha)
        assert solved["err_h"] == repr(record.err_h)
        assert int(solved["iterations"]) == record.iterations
        assert np.array_equal(np.loadtxt(tmp_path / "o" / "x.txt"), swept[0].x)

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--max-iters", "2", "--out", str(tmp_path / "r")],
            capsys,
        )
        assert rc == EXIT_NOT_CONVERGED
        assert "converged = false" in stdout

    def test_relaxed_n1024_converges(self, tmp_path, capsys):
        # the absolute tolerance needs an exact v-step: an inner solve to a
        # relative tolerance stalls the primal residual near 1e-8 here
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", "--n", "1024", "--m", "512",
             "--sparsity", "16", "--seed", "7", "--delta", "1e-2",
             "--out", str(tmp_path / "r")],
            capsys,
        )
        assert rc == EXIT_OK
        assert "converged = true" in stdout

    def test_trace_file(self, tmp_path, capsys):
        # the trace is an output like --out: it changes no other output
        args = ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4"]
        rc, stdout, _ = run_cli(args + ["--out", str(tmp_path / "plain")], capsys)
        assert rc == EXIT_OK
        trace = tmp_path / "trace.csv"
        rc2, stdout2, _ = run_cli(
            args + ["--out", str(tmp_path / "traced"), "--trace", str(trace)],
            capsys,
        )
        assert rc2 == EXIT_OK
        lines = trace.read_text().splitlines()
        iterations = int(parse_config_text(stdout)["iterations"])
        assert lines[0] == "iter,objective,fpr,primal_res,dual_res,rho"
        assert len(lines) == 1 + iterations
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(
            range(1, iterations + 1)
        )
        assert "trace" not in parse_config_text(stdout2)
        for name in ("x.txt", "h.txt"):
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "traced" / name
            ).read_bytes()

    def test_metadata_header_in_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--out", str(out)],
            capsys,
        )
        header = [
            line for line in (out / "x.txt").read_text().splitlines()
            if line.startswith("#")
        ]
        text = "\n".join(line[2:] for line in header)
        parsed = parse_config_text(text)
        assert parsed["seed"] == "1"
        assert parsed["model"] == "relaxed"


class TestSweep:
    def sweep_args(self, tmp_path, extra=()):
        return [
            "sweep", "--model", "relaxed", *SMALL,
            "--deltas", "1e-1,1e-2,1e-3", "--trials", "2",
            "--out", str(tmp_path / "s.csv"), *extra,
        ]

    def test_creates_csv(self, tmp_path, capsys):
        rc, stdout, _ = run_cli(self.sweep_args(tmp_path), capsys)
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]
        assert "determinism_hash = " in stdout

    def test_printed_slope_matches_csv(self, tmp_path, capsys):
        rc, stdout, _ = run_cli(self.sweep_args(tmp_path), capsys)
        printed = [l for l in stdout.splitlines() if l.startswith("fit_slope = ")]
        _, meta, fit = parse_csv(tmp_path / "s.csv")
        assert printed[0].split(" = ")[1] == repr(fit.slope)
        assert meta["fit_slope"] == repr(fit.slope)

    def test_determinism_across_invocations(self, tmp_path, capsys):
        hashes = []
        for name in ("a.csv", "b.csv"):
            rc, stdout, _ = run_cli(
                ["sweep", "--model", "relaxed", *SMALL,
                 "--deltas", "1e-1,1e-2", "--trials", "1",
                 "--out", str(tmp_path / name)],
                capsys,
            )
            assert rc == EXIT_OK
            hashes.append(determinism_hash((tmp_path / name).read_text()))
        assert hashes[0] == hashes[1]

    def test_jobs_flag_keeps_hash(self, tmp_path, capsys):
        # flags kept only for old scripts and configs leave the CSV unchanged
        run_cli(self.sweep_args(tmp_path), capsys)
        base = determinism_hash((tmp_path / "s.csv").read_text())
        for extra in (("--jobs", "3"), ("--gamma", "10")):
            run_cli(self.sweep_args(tmp_path, extra=extra), capsys)
            assert determinism_hash((tmp_path / "s.csv").read_text()) == base, extra

    def test_retired_config_keys_replay(self, tmp_path, capsys):
        # the config block no longer prints the retired flags, and an old
        # config file that still holds them replays to the same sweep
        rc, stdout, _ = run_cli(self.sweep_args(tmp_path), capsys)
        assert rc == EXIT_OK
        block = stdout.split("records = ")[0].splitlines()
        retired = {"gamma": "10.0", "jobs": "3"}
        assert not [l for l in block if l.split(" = ")[0] in retired]
        assert "no_certify = false" in block  # replays as no flag at all
        cfg = tmp_path / "old.cfg"
        old = [f"{key} = {value}" for key, value in retired.items()]
        cfg.write_text("\n".join(block + old) + "\n")
        rc, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")],
            capsys,
        )
        assert rc == EXIT_OK
        assert determinism_hash((tmp_path / "r.csv").read_text()) == determinism_hash(
            (tmp_path / "s.csv").read_text()
        )

    def test_bound_columns_present_when_certified(self, tmp_path, capsys):
        rc, _, _ = run_cli(self.sweep_args(tmp_path), capsys)
        records, meta, _ = parse_csv(tmp_path / "s.csv")
        assert meta["cert_valid"] == "true"
        assert all(r.pass_d is not None for r in records)
        assert all(r.pass_c and r.pass_d for r in records)

    def test_uncertified_sweep_reports_certify_lines(self, tmp_path, capsys):
        # integration forward operator: the certificate search fails, and the
        # sweep still records the injectivity report that certify prints
        instance = ["--model", "relaxed", "--n", "32", "--m", "24",
                    "--sparsity", "2", "--seed", "1"]
        rc, stdout, _ = run_cli(["certify", *instance], capsys)
        assert rc == EXIT_CERT_INVALID
        lines = stdout.splitlines()
        report = lines[lines.index("certificate_kind = relaxed"):]
        run_cli(["sweep", *instance, "--deltas", "1e-1,1e-2", "--trials", "1",
                 "--out", str(tmp_path / "u.csv")], capsys)
        _, meta, _ = parse_csv(tmp_path / "u.csv")
        assert meta["cert_valid"] == "false"
        assert "injective = true" in report
        for line in report:
            key, _, value = line.partition(" = ")
            assert meta[f"cert_{key}"] == value

    def test_no_certify_skips_bounds(self, tmp_path, capsys):
        rc, _, _ = run_cli(
            self.sweep_args(tmp_path, extra=("--no-certify",)), capsys
        )
        records, meta, _ = parse_csv(tmp_path / "s.csv")
        assert "cert_valid" not in meta
        assert all(r.pass_c is None for r in records)

    def test_no_certify_sweep_replays(self, tmp_path, capsys):
        # the printed block carries no_certify, so feeding it back skips the
        # certificate again and writes the same CSV
        rc, stdout, _ = run_cli(
            self.sweep_args(tmp_path, extra=("--no-certify",)), capsys
        )
        assert rc == EXIT_OK
        block = stdout.split("records = ")[0]
        assert "no_certify = true" in block.splitlines()
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(block)
        rc, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")],
            capsys,
        )
        assert rc == EXIT_OK
        _, meta, _ = parse_csv(tmp_path / "r.csv")
        assert "cert_valid" not in meta
        assert determinism_hash((tmp_path / "r.csv").read_text()) == determinism_hash(
            (tmp_path / "s.csv").read_text()
        )

    def test_replays_from_csv_header(self, tmp_path, capsys, monkeypatch):
        # the header's forward/n/m/matrix_seed rebuild W and A exactly
        used = {}

        def recording_sweep(cfg, phantom, w, a, **kwargs):
            used["w"], used["a"] = w, a
            return run_sweep(cfg, phantom, w, a, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", recording_sweep)
        path = tmp_path / "r.csv"
        rc, _, _ = run_cli(
            ["sweep", "--model", "relaxed", "--n", "128", "--m", "64",
             "--sparsity", "4", "--seed", "3", "--forward", "identity",
             "--trials", "1", "--delta-count", "2", "--max-iters", "50",
             "--no-certify", "--out", str(path)],
            capsys,
        )
        assert rc in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert path.stat().st_size < 4096
        _, meta, _ = parse_csv(path)
        cfg = SweepConfig(
            n=int(meta["n"]), m=int(meta["m"]), sparsity=int(meta["sparsity"]),
            deltas=tuple(float(d) for d in meta["deltas"].split(",")),
            big_c=float(meta["big_c"]), model=meta["model"],
            trials=int(meta["trials"]), seed=int(meta["seed"]),
        )
        assert meta["matrix_seed"] == str(cfg.matrix_seed())
        w, a = default_operators(cfg, forward=meta["forward"])
        np.testing.assert_array_equal(w.matrix, used["w"].matrix)
        np.testing.assert_array_equal(a.matrix, used["a"].matrix)


class TestCertify:
    def test_sparsity_above_measurements_not_injective(self, capsys):
        rc, stdout, _ = run_cli(
            ["certify", "--n", "32", "--m", "2", "--sparsity", "4",
             "--seed", "1", "--forward", "identity"],
            capsys,
        )
        assert rc == EXIT_CERT_INVALID
        assert "injective = false" in stdout


class TestConfigFile:
    @pytest.mark.parametrize("command, first_after_block", [
        (["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4"],
         "version = "),
        (["sweep", "--model", "relaxed", *SMALL, "--deltas", "1e-1,1e-2",
          "--trials", "1"], "records = "),
        (["certify", *SMALL], "certificate_kind = "),
    ], ids=["solve", "sweep", "certify"])
    def test_block_replays_every_parsed_value(self, tmp_path, capsys, command,
                                              first_after_block):
        # a new flag is replayed unless _NOT_REPLAYED declares otherwise
        if command[0] != "certify":
            command = command + ["--out", str(tmp_path / "out")]
        parsed = set(vars(cli.build_parser().parse_args(command)))
        rc, stdout, _ = run_cli(command, capsys)
        assert rc == EXIT_OK
        block = stdout.split(first_after_block)[0].splitlines()
        keys = {line.split(" = ")[0] for line in block}
        assert keys == parsed - cli._NOT_REPLAYED

    def test_config_supplies_defaults(self, tmp_path, capsys):
        # every spelling argparse accepts for --config reads the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nm = 24\nsparsity = 2\nseed = 1\n"
                       "forward = identity\ndelta = 1e-4\n")

        def block(args):
            rc, stdout, _ = run_cli(
                ["solve", "--model", "relaxed", *args,
                 "--out", str(tmp_path / "r")],
                capsys,
            )
            assert rc == EXIT_OK, args
            return [l for l in stdout.splitlines() if "walltime" not in l]

        flags = block([*SMALL, "--delta", "1e-4"])
        assert "n = 32" in flags and "seed = 1" in flags
        for spelling in (["--config", str(cfg)], [f"--config={cfg}"],
                         ["--conf", str(cfg)]):
            assert block(spelling) == flags, spelling

    def test_config_comments_and_blank_lines_replay(self, tmp_path, capsys):
        # a printed block fed back with a comment and a blank line in it
        # writes the same files
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--out", str(tmp_path / "a")],
            capsys,
        )
        assert rc == EXIT_OK
        block = stdout.split("version = ")[0].splitlines()
        cfg = tmp_path / "commented.cfg"
        cfg.write_text("\n".join(["# replay of a solve", "", *block[:2], "",
                                   "  # indented comment", *block[2:]]) + "\n")
        rc, _, _ = run_cli(
            ["solve", "--config", str(cfg), "--out", str(tmp_path / "b")],
            capsys,
        )
        assert rc == EXIT_OK
        for name in ("x.txt", "h.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_command_and_config_keys_skipped(self, tmp_path, capsys):
        # a block that names another subcommand and another config file
        # replays the command line's own run, byte for byte
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--out", str(tmp_path / "a")],
            capsys,
        )
        assert rc == EXIT_OK
        block = stdout.split("version = ")[0].splitlines()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(["command = certify", "config = other.cfg",
                                   *block]) + "\n")
        rc, replayed, _ = run_cli(
            ["solve", "--config", str(cfg), "--out", str(tmp_path / "b")],
            capsys,
        )
        assert rc == EXIT_OK
        assert replayed.split("version = ")[0].splitlines() == block
        for name in ("x.txt", "h.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 32\nm 24\n")
        rc, stdout, err = run_cli(
            ["solve", "--model", "relaxed", "--config", str(cfg),
             "--out", str(tmp_path / "r")],
            capsys,
        )
        assert rc == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("error: bad config file: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nn = 32\nm = 24\nsparsity = 2\n"
                       "forward = identity\n")
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", "--config", str(cfg),
             "--seed", "9", "--delta", "1e-4", "--out", str(tmp_path / "r")],
            capsys,
        )
        assert rc == EXIT_OK
        assert "seed = 9" in stdout

    def test_canonical_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc, stdout, _ = run_cli(
            ["solve", "--model", "relaxed", *SMALL, "--delta", "1e-4",
             "--out", str(out)],
            capsys,
        )
        config_lines = [
            line for line in stdout.splitlines()
            if " = " in line and line.split(" = ")[0] in (
                "n", "m", "sparsity", "seed", "big_c", "kappa", "forward",
                "model", "delta", "max_iters", "tol", "rho", "trials",
            )
        ]
        text = "\n".join(config_lines)
        parsed = parse_config_text(text)
        # feeding the canonical block back as a config reproduces the run
        cfg = tmp_path / "echo.cfg"
        cfg.write_text(text + "\n")
        rc2, stdout2, _ = run_cli(
            ["solve", "--model", "relaxed", "--config", str(cfg),
             "--out", str(tmp_path / "run2")],
            capsys,
        )
        assert rc2 == EXIT_OK
        x1 = np.loadtxt(out / "x.txt")
        x2 = np.loadtxt(tmp_path / "run2" / "x.txt")
        np.testing.assert_array_equal(x1, x2)

    def test_retired_solver_seed_refused(self, tmp_path, capsys):
        # the random solver start and the relaxation weight are gone; a
        # config that asks for either must not replay without notice
        for key in ("solver_seed", "lambda_relax"):
            cfg = tmp_path / "retired.cfg"
            cfg.write_text("n = 32\nm = 24\nsparsity = 2\nseed = 1\n"
                           f"forward = identity\n{key} = 5\n")
            rc, stdout, err = run_cli(
                ["solve", "--model", "relaxed", "--config", str(cfg),
                 "--out", str(tmp_path / "r")],
                capsys,
            )
            assert rc == EXIT_USAGE
            assert stdout == ""
            errors = [l for l in err.splitlines() if l.startswith("error:")]
            flag = "--" + key.replace("_", "-")
            assert len(errors) == 1 and flag in errors[0], key

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, err = run_cli(
            ["solve", "--model", "relaxed", "--config",
             str(tmp_path / "nope.cfg")],
            capsys,
        )
        assert rc == EXIT_USAGE


def test_solve_at_reference_noise_level(tmp_path, capsys):
    # the documented one-shot reconstruction at noise level 1e-5
    rc, stdout, _ = run_cli(
        ["solve", "--model", "relaxed", "--n", "64", "--m", "48",
         "--sparsity", "4", "--seed", "198", "--forward", "identity",
         "--delta", "1e-5", "--C", "1", "--rho", "0.1",
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert rc == EXIT_OK
    assert "converged = true" in stdout
    err_h = float(
        [l for l in stdout.splitlines() if l.startswith("err_h = ")][0].split(" = ")[1]
    )
    assert err_h <= 1e-3


def run_python(*args, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1coreg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


def test_readme_cli_row_names_subcommands():
    # the README's module table lists exactly the parser's commands
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        rows = [line for line in handle if line.startswith("| `l1coreg.cli` |")]
    assert len(rows) == 1
    listed = re.findall(r"`([^`]+)`", rows[0].split("|")[2])
    commands = [
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(listed) == sorted(commands[0])


def test_readme_certified_sweeps_print_its_hashes(tmp_path, capsys):
    # the README's "Certified indirect data" sweeps, run as printed there
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    section = text[text.index("**Certified indirect data.**"):]
    section = section[:section.index("\n## ")]
    commands = [line.split()[1:] for line in section.splitlines()
                if line.startswith("l1coreg sweep ")]
    prefixes = re.findall(r"`([0-9a-f]{8})…`", section)
    assert len(commands) == len(prefixes) == 2
    for argv, prefix in zip(commands, prefixes):
        out = tmp_path / "s.csv"
        rc, stdout, _ = run_cli([*argv, "--out", str(out)], capsys)
        assert rc == EXIT_OK
        records, meta, _ = parse_csv(out)
        assert meta["cert_valid"] == "true"
        assert all(r.pass_c and r.pass_d for r in records)
        assert parse_config_text(stdout)["determinism_hash"].startswith(prefix)


def test_python_dash_m_runs_cli():
    proc = run_python("-m", "l1coreg", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == l1coreg.__version__ == "0.1.0"


def test_python_dash_m_passes_exit_code():
    # entry_point hands main's code to the process: a usage error exits 1
    proc = run_python("-m", "l1coreg", "certify", "--n", "16", "--m", "0",
                      "--sparsity", "2")
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_import_loads_no_scipy():
    proc = run_python(
        "-c",
        "import sys, l1coreg; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# two factor blocks, certificate included
_N128 = ("--n", "128", "--m", "64", "--sparsity", "4", "--seed", "3",
         "--trials", "1", "--delta-count", "2")
# eight factor blocks; the certificate is left out here and checked by
# test_certify_independent_of_blas_threads on its own command
_N512 = ("--n", "512", "--m", "256", "--sparsity", "16", "--seed", "7",
         "--deltas", "1e-2,1e-3", "--no-certify")
# identity W builds through the same K = I + S S*: four factor blocks
_N512_IDENTITY = (*_N512, "--forward", "identity")


@pytest.mark.parametrize(
    "model, instance",
    [
        pytest.param("strict", _N128, id="strict"),
        pytest.param("relaxed", _N128, id="relaxed"),
        pytest.param("strict", _N512, id="strict-n512"),
        pytest.param("relaxed", _N512, id="relaxed-n512"),
        pytest.param("strict", _N512_IDENTITY, id="strict-n512-identity"),
        pytest.param("relaxed", _N512_IDENTITY, id="relaxed-n512-identity"),
    ],
)
def test_sweep_hash_independent_of_blas_threads(tmp_path, model, instance):
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        proc = run_python(
            "-m", "l1coreg", "sweep", "--model", model, *instance,
            "--jobs", "1", "--out", str(out),
            OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        hashes.append(determinism_hash(out.read_text()))
    assert hashes[0] == hashes[1]


def test_certify_independent_of_blas_threads():
    # A has full row rank, so the search whitens A A* in 64-wide blocks and
    # takes no SVD; at this size a pseudo-inverse of B prints different last
    # digits at one and two threads
    outputs = []
    for threads in ("1", "2"):
        proc = run_python(
            "-m", "l1coreg", "certify", "--model", "strict", "--n", "512",
            "--m", "256", "--sparsity", "16", "--seed", "7",
            "--forward", "identity", OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "valid = true" in proc.stdout.splitlines()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_benchmark_commands_parse(monkeypatch):
    # the benchmark still passes --gamma and --jobs; dropping either flag
    # would fail every sweep workload
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    for name, make in workloads.WORKLOADS.items():
        for cmd in make():
            out = None if cmd.kind == "certify" else "out"
            args = parser.parse_args(cmd.argv(out))
            assert args.command == cmd.kind, (name, cmd.key)
