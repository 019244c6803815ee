"""Command-line front end: solve, sweep and certify workflows.

Every run prints a canonical ``key = value`` configuration block that can be
fed back through ``--config`` to replay it bit-exactly.  The block holds
every parsed value that is set, except those named in ``_NOT_REPLAYED``
(the subcommand, the config and output paths, flags without effect), and
each command takes all of its seeds from one :class:`SweepConfig`.  Exit
codes are a stable contract: 0 success, 1 usage error (non-finite
parameters included), 2 solver non-convergence, 3 certificate
invalid-but-computed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__
from .basis import WaveletBasis
from .certificates import certify, report_lines
from .experiments import (
    MAX_NOISE_LEVELS,
    SweepConfig,
    SweepError,
    converse_consistency_flag,
    default_operators,
    determinism_hash,
    emit_csv,
    make_phantom,
    run_sweep,
    solve_record,
    sweep_metadata,
)
from .operators import MaterializeBudgetError
from .regularizers import WeightedL1
from .solvers import SolverConfig, SolverError

__all__ = ["main", "entry_point", "canonical_config", "parse_config_text"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_CERT_INVALID = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(p):
    p.add_argument("--config", help="key = value file with defaults (flags win)")
    p.add_argument("--n", type=int, default=256, help="signal dimension (power of 2)")
    p.add_argument("--m", type=int, default=128, help="number of measurements")
    p.add_argument("--sparsity", type=int, default=8, help="phantom support size")
    p.add_argument("--seed", type=int, default=7, help="base seed for all streams")
    p.add_argument("--C", dest="big_c", type=float, default=1.0,
                   help="parameter-choice constant in alpha = C*delta")
    p.add_argument("--kappa", type=float, default=1.0,
                   help="uniform l1 weight level")
    p.add_argument("--forward", choices=("integration", "identity"),
                   default="integration", help="forward operator W")


def _add_solver(p):
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="accepted for old scripts and configs; no effect")
    p.add_argument("--rho", type=float, default=1.0,
                   help="starting ADMM penalty (both models; balanced during "
                        "the solve)")


def build_parser():
    parser = _Parser(prog="l1coreg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="one regularized solve on a phantom")
    _add_common(p_solve)
    _add_solver(p_solve)
    p_solve.add_argument("--model", choices=("relaxed", "strict"), required=True)
    p_solve.add_argument("--delta", type=float, default=1e-5, help="noise level")
    p_solve.add_argument("--out", default="l1coreg_out", help="output directory")
    p_solve.add_argument("--trace", default=None,
                         help="CSV path for one row per ADMM iteration")

    p_sweep = sub.add_parser("sweep", help="noise-level sweep with rate fit")
    _add_common(p_sweep)
    _add_solver(p_sweep)
    p_sweep.add_argument("--model", choices=("relaxed", "strict"), required=True)
    p_sweep.add_argument("--deltas", default=None,
                         help="comma-separated noise levels, descending")
    p_sweep.add_argument("--delta-max", type=float, default=1e-2)
    p_sweep.add_argument("--delta-min", type=float, default=1e-5)
    p_sweep.add_argument("--delta-count", type=int, default=7)
    p_sweep.add_argument("--trials", type=int, default=3)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for old scripts and configs; no effect")
    p_sweep.add_argument("--out", default="sweep.csv", help="CSV output path")
    p_sweep.add_argument("--no-certify", action="store_true",
                         help="skip the certificate search (no bound columns)")

    p_cert = sub.add_parser("certify", help="source-condition certificate search")
    _add_common(p_cert)
    p_cert.add_argument("--model", choices=("relaxed", "strict"), default="relaxed")
    return parser


def parse_config_text(text):
    """Parse a ``key = value`` block into a flat string dict."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line without '=': {raw!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


#: Parsed values the configuration block leaves out: the subcommand, where
#: the run reads and writes, and flags that no longer have an effect.
_NOT_REPLAYED = {"command", "config", "out", "trace", "gamma", "jobs"}


def canonical_config(args):
    """Sorted ``key = value`` lines of every set value not in ``_NOT_REPLAYED``."""
    lines = []
    for key, value in sorted(vars(args).items()):
        if key in _NOT_REPLAYED or value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return lines


_FLAG_ALIASES = {"big_c": "--C"}


def _inject_config(argv):
    """Expand the ``--config`` file into leading flags so explicit flags win.

    A parser that knows only ``--config`` finds the file, so every spelling
    the full parser accepts (``--config=FILE``, abbreviations such as
    ``--conf FILE``) is honoured.  A ``true`` value becomes the bare switch
    and a ``false`` one adds nothing.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv  # no config, or no value for the parser to report
    with open(path, "r", encoding="ascii") as handle:
        values = parse_config_text(handle.read())
    injected = []
    for key, value in sorted(values.items()):
        if key in ("command", "config"):
            continue
        flag = _FLAG_ALIASES.get(key, f"--{key.replace('_', '-')}")
        if value == "true":
            injected.append(flag)
        elif value != "false":
            injected.extend([flag, value])
    return [argv[0]] + injected + argv[1:]


def _solver_config(args):
    return SolverConfig(max_iters=args.max_iters, tol=args.tol, rho=args.rho)


def _sweep_config(args, deltas=(1.0,), trials=1):
    """The command's one :class:`SweepConfig`, which owns all of its seeds."""
    return SweepConfig(n=args.n, m=args.m, sparsity=args.sparsity, deltas=deltas,
                       big_c=args.big_c, model=args.model, trials=trials,
                       seed=args.seed)


def _build_instance(args, cfg):
    basis = WaveletBasis(cfg.n)
    l1 = WeightedL1(basis, np.full(cfg.n, args.kappa))
    w, a = default_operators(cfg, forward=args.forward)
    phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(), basis, w)
    return basis, l1, w, a, phantom


def _write_vector(path, vector, header_lines):
    with open(path, "w", encoding="ascii") as handle:
        for line in header_lines:
            handle.write(f"# {line}\n")
        for value in np.asarray(vector, dtype=float):
            handle.write(f"{float(value)!r}\n")


def _print_block(lines):
    for line in lines:
        print(line)


def _cmd_solve(args):
    """Record ``(0, 0)`` of the one-level sweep at ``--delta``."""
    cfg = _sweep_config(args, (args.delta,))
    solver_cfg = _solver_config(args)
    basis, l1, w, a, phantom = _build_instance(args, cfg)
    if args.trace is None:
        trace = contextlib.nullcontext()
    else:
        trace = open(args.trace, "w", encoding="ascii")
    with trace as stream:
        record, result = solve_record(cfg, phantom, w, a, l1, 0, 0,
                                      solver_cfg=solver_cfg,
                                      trace=stream)

    config_lines = canonical_config(args)
    summary = [
        f"version = {__version__}",
        f"alpha = {record.alpha!r}",
        f"objective = {result.objective!r}",
        f"iterations = {result.iterations}",
        f"rho_final = {result.rho!r}",
        f"rebuilds = {result.rebuilds}",
        f"fixed_point_residual = {result.fixed_point_residual!r}",
        f"converged = {str(result.converged).lower()}",
        f"err_x = {float(np.linalg.norm(result.x - phantom.x_star))!r}",
        f"err_h = {record.err_h!r}",
    ]
    os.makedirs(args.out, exist_ok=True)
    header = config_lines + summary
    _write_vector(os.path.join(args.out, "x.txt"), result.x, header)
    _write_vector(os.path.join(args.out, "h.txt"), result.h, header)
    _print_block(config_lines)
    _print_block(summary)
    print(f"walltime_s = {result.wall_time:.3f}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_sweep(args):
    if args.deltas is not None:
        tokens = args.deltas.split(",") if args.deltas else ()
        deltas = tuple(float(tok) for tok in tokens)
    else:
        # checked before the grid is built, so numpy warns about nothing
        if not all(0 < v < np.inf for v in (args.delta_max, args.delta_min)):
            raise ValueError("all noise levels must be positive and finite")
        if args.delta_count < 1:
            raise ValueError("deltas must be nonempty")
        if args.delta_count > MAX_NOISE_LEVELS:
            raise ValueError(f"at most {MAX_NOISE_LEVELS} noise levels per sweep")
        deltas = tuple(
            np.logspace(
                np.log10(args.delta_max), np.log10(args.delta_min), args.delta_count
            )
        )
    cfg = _sweep_config(args, deltas, args.trials)
    solver_cfg = _solver_config(args)
    basis, l1, w, a, phantom = _build_instance(args, cfg)

    constants = None
    cert_lines = []
    if not args.no_certify:
        cert, inj, constants = certify(
            args.model, w, a, basis, l1, phantom.x_star, args.big_c
        )
        cert_lines = report_lines(cert, inj, constants)

    result = run_sweep(
        cfg, phantom, w, a, l1=l1, constants=constants, solver_cfg=solver_cfg
    )
    meta = sweep_metadata(cfg, l1, solver_cfg, args.forward)
    meta["converged"] = str(result.all_converged).lower()
    for line in cert_lines:
        key, _, value = line.partition(" = ")
        meta[f"cert_{key}"] = value
    if not args.no_certify:
        flagged = converse_consistency_flag(constants is not None, result.fit.slope)
        meta["converse_flag"] = str(flagged).lower()
    meta["walltime_s"] = f"{result.wall_time:.3f}"
    text = emit_csv(result.records, result.fit, args.out, metadata=meta)

    _print_block(canonical_config(args))
    print(f"records = {len(result.records)}")
    print(f"fit_slope = {result.fit.slope!r}")
    print(f"fit_r_squared = {result.fit.r_squared!r}")
    print(f"converged = {str(result.all_converged).lower()}")
    print(f"csv = {args.out}")
    print(f"determinism_hash = {determinism_hash(text)}")
    return EXIT_OK if result.all_converged else EXIT_NOT_CONVERGED


def _cmd_certify(args):
    basis, l1, w, a, phantom = _build_instance(args, _sweep_config(args))
    cert, inj, constants = certify(
        args.model, w, a, basis, l1, phantom.x_star, args.big_c
    )
    _print_block(canonical_config(args))
    _print_block(report_lines(cert, inj, constants))
    valid = cert.valid and inj.injective
    return EXIT_OK if valid else EXIT_CERT_INVALID


_COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "certify": _cmd_certify}


def main(argv=None):
    """Run the CLI; returns the exit code instead of raising.

    Usage errors, bad inputs and operators over the entry budget exit
    with 1; a solve or sweep that fails outright exits with 2, like one that
    does not converge.  Each writes one ``error: ...`` line to stderr.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: bad config file: {exc}\n")
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MaterializeBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SolverError, SweepError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_CONVERGED


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
