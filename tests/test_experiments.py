from dataclasses import replace

import numpy as np
import pytest

from conftest import coupling_map, parse_csv
from l1coreg import experiments, solvers
from l1coreg.basis import WaveletBasis, support
from l1coreg.certificates import certify
from l1coreg.experiments import (
    CSV_COLUMNS,
    PhantomError,
    SweepConfig,
    SweepError,
    SweepRecord,
    add_noise,
    default_operators,
    determinism_hash,
    emit_csv,
    fit_rate,
    make_phantom,
    run_sweep,
    solve_record,
    sweep_metadata,
)
from l1coreg.operators import BernoulliSensing, DenseMap, IntegrationOp, identity
from l1coreg.regularizers import WeightedL1
from l1coreg.solvers import Problem, SolverConfig, solve


@pytest.fixture
def small_sweep():
    """Tiny identity-forward sweep that solves in well under a second."""
    n, m, sparsity, seed = 16, 12, 2, 1
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    cfg = SweepConfig(
        n=n, m=m, sparsity=sparsity,
        deltas=(1e-1, 1e-2, 1e-3), model="relaxed", trials=2, seed=seed,
    )
    w, a = default_operators(cfg, forward="identity")
    phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
    return cfg, phantom, w, a, l1


class TestMakePhantom:
    def test_zero_sparsity(self):
        basis = WaveletBasis(16)
        ph = make_phantom(16, 0, 3, basis, identity(16))
        assert np.all(ph.x_star == 0.0)
        assert np.all(ph.h_star == 0.0)
        assert len(support(basis.decompose(ph.h_star))) == 0

    def test_forward_consistency_integration(self):
        basis = WaveletBasis(64)
        w = IntegrationOp(64)
        ph = make_phantom(64, 4, 9, basis, w)
        gap = np.linalg.norm(w.matrix @ ph.x_star - ph.h_star)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(ph.h_star))

    def test_support_size_exact(self):
        basis = WaveletBasis(64)
        for seed in range(5):
            ph = make_phantom(64, 5, seed, basis, identity(64))
            assert len(support(basis.decompose(ph.h_star))) == 5

    def test_support_in_coarsest_quarter_with_dc(self):
        basis = WaveletBasis(64)
        ph = make_phantom(64, 6, 4, basis, identity(64))
        found = support(basis.decompose(ph.h_star))
        assert 0 in found
        assert max(found) < 16

    def test_determinism(self):
        basis = WaveletBasis(32)
        a = make_phantom(32, 3, 5, basis, identity(32))
        b = make_phantom(32, 3, 5, basis, identity(32))
        np.testing.assert_array_equal(a.h_star, b.h_star)

    def test_sparsity_cap(self):
        basis = WaveletBasis(16)
        with pytest.raises(ValueError):
            make_phantom(16, 3, 0, basis, identity(16))  # 3 > 16/8

    def test_unsupported_operator(self):
        basis = WaveletBasis(16)
        bad = DenseMap(np.eye(16) * 2.0)
        with pytest.raises(PhantomError):
            make_phantom(16, 2, 0, basis, bad)


class TestAddNoise:
    def test_zero_delta_is_copy(self, rng):
        y = rng.standard_normal(10)
        out = add_noise(y, 0.0, 1)
        np.testing.assert_array_equal(out, y)
        assert out is not y

    def test_exact_noise_level(self, rng):
        y = rng.standard_normal(33)
        for delta in (1e-5, 1e-2, 3.0):
            out = add_noise(y, delta, 7)
            assert np.linalg.norm(out - y) == pytest.approx(delta, abs=1e-12)

    def test_determinism(self, rng):
        y = rng.standard_normal(12)
        np.testing.assert_array_equal(add_noise(y, 0.1, 3), add_noise(y, 0.1, 3))
        assert not np.array_equal(add_noise(y, 0.1, 3), add_noise(y, 0.1, 4))

    def test_negative_delta(self, rng):
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), -1.0, 0)

    def test_empty_data_rejected(self):
        np.testing.assert_array_equal(add_noise(np.zeros(0), 0.0, 0), [])
        with pytest.raises(ValueError):
            add_noise(np.zeros(0), 0.1, 0)


class TestFitRate:
    def test_perfect_line(self):
        deltas = np.logspace(-1, -4, 6)
        fit = fit_rate(deltas, 3.0 * deltas)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points_used == 6

    def test_excludes_tiny_errors(self):
        deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = np.array([1e-1, 1e-2, 1e-16, 1e-16])
        fit = fit_rate(deltas, errs)
        assert fit.points_used == 2

    def test_degenerate(self):
        fit = fit_rate([1e-3], [1e-16])
        assert fit.points_used == 0
        assert np.isnan(fit.slope)


class TestSweepConfig:
    def test_deltas_must_descend(self):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-3, 1e-2))

    def test_deltas_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2, 0.0))

    @pytest.mark.parametrize("deltas", [
        (float("nan"), 1e-3),
        (1e-2, float("nan")),
        (float("inf"), 1e-3),
        (float("nan"),),
    ])
    def test_deltas_finite(self, deltas):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=4, sparsity=1, deltas=deltas)

    def test_measurements_validated(self):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=0, sparsity=1, deltas=(1e-2,))

    def test_model_validated(self):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2,), model="bogus")

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2,), trials=0)

    @pytest.mark.parametrize("big_c", [0.0, float("inf"), float("nan")])
    def test_big_c_positive_and_finite(self, big_c):
        with pytest.raises(ValueError, match="positive and finite"):
            SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2,), big_c=big_c)

    def test_seed_streams_distinct(self):
        cfg = SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2, 1e-3), trials=2, seed=3)
        seeds = {cfg.phantom_seed(), cfg.matrix_seed()}
        for i in range(2):
            for t in range(2):
                seeds.add(cfg.noise_seed(i, t))
        assert len(seeds) == 6

    def test_seed_range(self):
        # the largest seed keeps every derived Philox key below 2**128; one
        # more, or a negative seed, would fail inside numpy
        top = experiments._MAX_SEED
        cfg = SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2,), seed=top)
        np.random.Philox(key=cfg.matrix_seed())
        with pytest.raises(ValueError):
            np.random.Philox(key=(top + 1) * 1_000_000 + 900_002)
        for seed in (-1, top + 1):
            with pytest.raises(ValueError, match=rf"^seed must lie in \[0, {top}\]$"):
                SweepConfig(n=8, m=4, sparsity=1, deltas=(1e-2,), seed=seed)


class TestRunSweep:
    def test_record_layout_and_ordering(self, small_sweep):
        cfg, phantom, w, a, l1 = small_sweep
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        assert len(result.records) == len(cfg.deltas) * cfg.trials
        expected_deltas = [d for d in cfg.deltas for _ in range(cfg.trials)]
        assert [r.delta for r in result.records] == expected_deltas
        assert result.all_converged
        for rec in result.records:
            assert rec.alpha == pytest.approx(cfg.big_c * rec.delta)
            assert np.isfinite(rec.err_h)
            assert rec.pass_c is None and rec.pass_d is None

    def test_median_err_monotone_in_delta(self, small_sweep):
        cfg, phantom, w, a, l1 = small_sweep
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        med = [
            np.median([r.err_h for r in result.records[i * 2 : i * 2 + 2]])
            for i in range(3)
        ]
        # descending deltas: larger noise may not give smaller error
        violations = sum(m2 > m1 * (1 + 1e-9) for m1, m2 in zip(med, med[1:]))
        assert violations <= 1

    def test_solver_failure_identified(self, small_sweep):
        # on integration W the wrong basis fails already in the build of
        # Phi U, which is part of the first record
        cfg, phantom, w, a, l1 = small_sweep
        bad_l1 = WeightedL1(WaveletBasis(32))  # wrong basis size
        for forward in (w, IntegrationOp(cfg.n)):
            with pytest.raises(SweepError) as err:
                run_sweep(cfg, phantom, forward, a, l1=bad_l1)
            assert "delta=" in str(err.value) and "trial=" in str(err.value)

    @staticmethod
    def _integration_sweep(small_sweep):
        cfg, _, _, a, l1 = small_sweep
        cfg = replace(cfg, deltas=(1e-1, 1e-2))
        w = IntegrationOp(cfg.n)
        phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(),
                               l1.basis, w)
        return cfg, phantom, w, a, l1

    def test_instance_arrays_built_once(self, small_sweep, monkeypatch):
        # W's spectrum, Phi U and A U belong to the instance: a 2-delta,
        # 2-trial sweep forms them once for its four records, and a lone
        # solve forms its own once
        cfg, phantom, w, a, l1 = self._integration_sweep(small_sweep)
        calls = []
        build = solvers._singular_basis

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(solvers, "_singular_basis", spy)
        monkeypatch.setattr(experiments, "_singular_basis", spy)
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        assert len(result.records) == 4
        assert len(calls) == 1
        solve(Problem("strict", w, a, np.ones(cfg.m), 0.1, l1))
        assert len(calls) == 2

    def test_held_arrays_keep_the_bits(self, small_sweep, monkeypatch):
        # records that read the sweep's arrays equal, bit for bit, records
        # whose solves form their own (compared by repr: NaN bound sides)
        cfg, phantom, w, a, l1 = self._integration_sweep(small_sweep)
        held = run_sweep(cfg, phantom, w, a, l1=l1)
        monkeypatch.setattr(experiments, "_singular_basis", lambda *args: None)
        own = run_sweep(cfg, phantom, w, a, l1=l1)
        assert repr(held.records) == repr(own.records)

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_record_formulas(self, small_sweep, model):
        # the residual of the coupling (x, h) -> (W x - h, A h) against
        # (0, y_delta), and err_h of the solver's estimate h, for both models
        cfg, _, _, a, l1 = small_sweep
        cfg = replace(cfg, model=model)
        w = IntegrationOp(cfg.n)
        phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(),
                               l1.basis, w)
        record, res = solve_record(cfg, phantom, w, a, l1, 1, 0)
        y_delta = add_noise(a.matrix @ phantom.h_star, 1e-2, cfg.noise_seed(1, 0))
        target = np.concatenate([np.zeros(cfg.n), y_delta])
        stacked = np.concatenate([res.x, res.h])
        expected = np.linalg.norm(coupling_map(w, a) @ stacked - target)
        assert record.residual == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert record.err_h == np.linalg.norm(res.h - phantom.h_star)
        assert record.alpha == cfg.big_c * 1e-2
        if model == "strict":
            assert np.array_equal(res.h, w.matrix @ res.x)
            assert record.residual == np.linalg.norm(a.matrix @ res.h - y_delta)

    def test_dimension_guard(self, small_sweep):
        cfg, phantom, w, a, l1 = small_sweep
        with pytest.raises(ValueError):
            run_sweep(cfg, phantom, identity(32), a, l1=l1)

    @staticmethod
    def _chain_and_cold_iterations(monkeypatch):
        """Total iterations of one chained sweep and of the same sweep with
        every solve cold, after checking that both reach the same records."""
        cfg = SweepConfig(n=64, m=48, sparsity=4, deltas=np.logspace(-2, -5, 7),
                          model="relaxed", trials=1, seed=198)
        basis = WaveletBasis(cfg.n)
        l1 = WeightedL1(basis)
        w, a = default_operators(cfg, forward="identity")
        phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(), basis, w)
        _, _, constants = certify("relaxed", w, a, basis, l1, phantom.x_star, 1.0)
        assert constants is not None
        solver_cfg = SolverConfig(rho=1.0, max_iters=30_000)
        chained = run_sweep(cfg, phantom, w, a, l1=l1, constants=constants,
                            solver_cfg=solver_cfg)
        monkeypatch.setattr(
            experiments, "solve",
            lambda p, scfg, trace=None, warm=None: solve(p, scfg, trace),
        )
        cold = run_sweep(cfg, phantom, w, a, l1=l1, constants=constants,
                         solver_cfg=solver_cfg)
        assert chained.all_converged and cold.all_converged
        for got, want in zip(chained.records, cold.records):
            for name in ("err_h", "bregman_x"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-4
                )
            assert (got.pass_c, got.pass_d) == (want.pass_c, want.pass_d)
        return (sum(r.iterations for r in chained.records),
                sum(r.iterations for r in cold.records))

    def test_chain_matches_cold_solves(self, monkeypatch):
        # each trial's records start from its previous converged solve; the
        # chain reaches the cold optimum in a fraction of the iterations
        total, cold = self._chain_and_cold_iterations(monkeypatch)
        assert total <= cold / 5

    def test_chain_matches_cold_solves_at_fixed_rho(self, monkeypatch):
        # with rho held at its starting value the gain is the warm start's
        # alone, whatever rho balancing does to the cold solves
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 0)
        total, cold = self._chain_and_cold_iterations(monkeypatch)
        assert total <= cold / 5

    def test_chain_restarts_cold_after_unconverged(self, small_sweep, monkeypatch):
        cfg, phantom, w, a, l1 = small_sweep
        calls = []

        def spy(p, scfg, trace=None, warm=None):
            res = solve(p, scfg, trace, warm)
            if len(calls) == 2:  # delta index 1, trial 0
                res = replace(res, converged=False)
            calls.append((warm, res))
            return res

        monkeypatch.setattr(experiments, "solve", spy)
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        assert not result.all_converged
        warms = [warm for warm, _ in calls]
        results = [res for _, res in calls]
        # records run delta by delta, trials 0 and 1 innermost
        assert warms[0] is None and warms[1] is None
        assert warms[2] is results[0] and warms[3] is results[1]
        assert warms[4] is None
        assert warms[5] is results[3]


class TestCsvRoundTrip:
    def test_roundtrip_field_for_field(self, small_sweep, tmp_path):
        cfg, phantom, w, a, l1 = small_sweep
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        path = tmp_path / "sweep.csv"
        meta = sweep_metadata(cfg, l1, SolverConfig(), "identity")
        emit_csv(result.records, result.fit, path, metadata=meta)
        records, parsed_meta, fit = parse_csv(path)
        assert len(records) == len(result.records)
        for got, want in zip(records, result.records):
            for name in CSV_COLUMNS:
                g, w_ = getattr(got, name), getattr(want, name)
                if isinstance(w_, float) and np.isnan(w_):
                    assert np.isnan(g)
                else:
                    assert g == w_
        assert fit.slope == result.fit.slope
        assert parsed_meta["seed"] == str(cfg.seed)
        assert parsed_meta["big_c"] == repr(float(cfg.big_c))

    def test_metadata_states_rho_rule(self, small_sweep):
        # solver_rho is the starting penalty; the rule says how it moves
        cfg, _, _, _, l1 = small_sweep
        meta = sweep_metadata(cfg, l1, SolverConfig(rho=0.1), "identity")
        assert meta["solver_rho"] == "0.1"
        keys = list(meta)
        assert keys.index("solver_rho_rule") == keys.index("solver_start_rule") + 1
        assert "every 50 iterations" in meta["solver_rho_rule"]

    def test_metadata_kappa_is_one_value_when_uniform(self, small_sweep):
        cfg, _, _, _, l1 = small_sweep
        meta = sweep_metadata(cfg, l1, SolverConfig(), "identity")
        assert meta["kappa"] == "1.0"
        kappa = np.ones(cfg.n)
        kappa[1] = 2.5
        meta = sweep_metadata(cfg, WeightedL1(l1.basis, kappa), SolverConfig(),
                              "identity")
        assert meta["kappa"] == ",".join(repr(float(k)) for k in kappa)

    def test_column_count_always_ten(self, small_sweep, tmp_path):
        cfg, phantom, w, a, l1 = small_sweep
        result = run_sweep(cfg, phantom, w, a, l1=l1)
        path = tmp_path / "sweep.csv"
        emit_csv(result.records, result.fit, path)
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith("delta,"):
                continue
            assert len(line.split(",")) == 10

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], None, tmp_path / "x.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("bogus,columns\n1,2\n")
        with pytest.raises(ValueError):
            parse_csv(path)


class TestDeterminism:
    def test_identical_sweeps_hash_equal(self, small_sweep, tmp_path):
        cfg, phantom, w, a, l1 = small_sweep
        texts = []
        for k in range(2):
            result = run_sweep(cfg, phantom, w, a, l1=l1)
            meta = sweep_metadata(cfg, l1, SolverConfig(), "identity")
            meta["walltime_s"] = f"{result.wall_time:.3f}"  # differs per run
            texts.append(
                emit_csv(result.records, result.fit, tmp_path / f"s{k}.csv", meta)
            )
        assert determinism_hash(texts[0]) == determinism_hash(texts[1])

    def test_walltime_line_excluded(self):
        base = "# a = 1\ndelta_stub\n"
        with_wall = "# a = 1\n# walltime_s = 9.99\ndelta_stub\n"
        assert determinism_hash(base) == determinism_hash(with_wall)

    def test_different_data_different_hash(self):
        assert determinism_hash("# a = 1\nrow\n") != determinism_hash("# a = 2\nrow\n")


def test_noiseless_limit_on_certified_instance():
    # tiny delta on a certified instance: the error lands far below the
    # bound d*delta; square sensing keeps the data term nondegenerate so the
    # solver can actually resolve the minimizer at alpha = 1e-12
    from l1coreg.certificates import find_certificate_relaxed
    from l1coreg.solvers import Problem, solve_strict

    n, sparsity, seed = 32, 3, 4
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    w = identity(n)
    cfg = SweepConfig(n=n, m=n, sparsity=sparsity, deltas=(1.0,), seed=seed)
    a = BernoulliSensing(n, n, seed=cfg.matrix_seed())
    phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
    cert = find_certificate_relaxed(w, a, basis, l1, phantom.x_star)
    assert cert.valid
    delta = 1e-12
    y_delta = add_noise(a.matrix @ phantom.h_star, delta, 5)
    p = Problem("strict", w, a, y_delta, delta, l1)
    res = solve_strict(p, SolverConfig(tol=1e-12, max_iters=50000))
    err = np.linalg.norm(w.matrix @ res.x - phantom.h_star)
    assert err <= 1e-6


class TestConverseConsistency:
    def test_certified_instance_is_consistent(self):
        from l1coreg.experiments import converse_consistency_flag

        assert converse_consistency_flag(True, 1.01) is False
        assert converse_consistency_flag(True, 0.1) is False

    def test_uncertified_sublinear_is_consistent(self):
        from l1coreg.experiments import converse_consistency_flag

        assert converse_consistency_flag(False, 0.12) is False
        assert converse_consistency_flag(False, float("nan")) is False

    def test_uncertified_linear_is_flagged(self):
        from l1coreg.experiments import converse_consistency_flag

        assert converse_consistency_flag(False, 0.97) is True

    def test_integration_instance_end_to_end(self):
        # integration forward operator at unit weights: the certificate
        # search fails and the measured rate is visibly sublinear, so the
        # monitor stays quiet (validity matches the observed rate)
        from l1coreg.certificates import find_certificate_relaxed
        from l1coreg.experiments import converse_consistency_flag

        n, m, sparsity, seed = 64, 32, 4, 5
        basis = WaveletBasis(n)
        l1 = WeightedL1(basis)
        w = IntegrationOp(n)
        cfg = SweepConfig(
            n=n, m=m, sparsity=sparsity,
            deltas=(1e-2, 1e-3, 1e-4), model="strict", trials=1, seed=seed,
        )
        a = BernoulliSensing(m, n, seed=cfg.matrix_seed())
        phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
        cert = find_certificate_relaxed(w, a, basis, l1, phantom.x_star)
        assert not cert.valid
        result = run_sweep(cfg, phantom, w, a, l1=l1,
                           solver_cfg=SolverConfig(max_iters=30000))
        assert result.fit.slope < 0.95
        assert converse_consistency_flag(cert.valid, result.fit.slope) is False
