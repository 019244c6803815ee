"""Noise-level sweep harness: phantoms, exact-level noise, rate fits, CSV.

A sweep fixes a phantom and operators, then for each noise level ``delta``
(times ``trials`` repetitions) draws data with ``||y_delta - y*|| = delta``
exactly, solves the chosen model under the parameter choice
``alpha = C delta``, and records errors together with the theoretical bound
sides when rate constants are available.  :func:`solve_record` makes one
record; the bounds concern the solver's estimate ``result.h`` of
``h* = W x*`` for both models.  Identical configurations and seeds
reproduce the emitted CSV bit for bit (wall-time metadata excluded), which
:func:`determinism_hash` makes checkable.

Derived seed streams (all Philox keys): the phantom uses
``seed*10**6 + 900001``, the sensing matrix ``seed*10**6 + 900002``, and the
noise for delta index ``i``, trial ``t`` uses ``seed*10**6 + i*100 + t``.
A seed must be nonnegative and small enough that every key is below
``2**128``.

Each trial's records form one chain along the descending noise levels: the
solve of delta index ``i > 0`` starts from the final state of the same
trial's record at ``i - 1`` when that one converged, and from zero
otherwise.  A chained solve first takes the solver's active-set steps from
that state; when their point verifies, no ADMM runs (``iterations`` 0),
and otherwise ADMM runs from the state.  The chain runs from large to small
``alpha`` and is fixed by the configuration, so replay stays bit-exact.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .basis import support as coeff_support
from .operators import BernoulliSensing, _forward, _inverse
from .regularizers import bregman_quadratic
from .solvers import (
    _BALANCE_EVERY,
    _BALANCE_RATIO,
    _FACTOR_BLOCK,
    _KKT_TOL,
    _MAX_ACTIVE_SET_STEPS,
    _MAX_REBUILDS,
    Problem,
    _check_l1_size,
    _singular_basis,
    solve,
)

__all__ = [
    "Phantom",
    "SweepConfig",
    "SweepRecord",
    "SweepResult",
    "RateFit",
    "PhantomError",
    "SweepError",
    "make_phantom",
    "add_noise",
    "fit_rate",
    "solve_record",
    "run_sweep",
    "emit_csv",
    "determinism_hash",
    "CSV_COLUMNS",
]

#: Tolerances of the bound pass flags: err <= rhs*(1+REL) + ABS.
BOUND_PASS_REL = 1e-6
BOUND_PASS_ABS = 1e-10

_ERR_FLOOR = 1e-14

#: Most noise levels one sweep takes.
MAX_NOISE_LEVELS = 9000

_PHANTOM_SEED_OFFSET = 900_001
_MATRIX_SEED_OFFSET = 900_002

#: Largest seed whose derived Philox keys all stay below 2**128.
_MAX_SEED = (2**128 - 1 - _MATRIX_SEED_OFFSET) // 1_000_000


class PhantomError(ValueError):
    """Phantom construction is not possible for the requested operator."""


class SweepError(RuntimeError):
    """A sweep record failed; the message identifies the offending record."""


@dataclass(frozen=True)
class Phantom:
    """Ground-truth pair with a sparse indirect signal.

    ``h_star`` is sparse in the wavelet basis and ``x_star`` satisfies
    ``W x_star = h_star`` to roundoff.
    """

    x_star: np.ndarray
    h_star: np.ndarray


@dataclass(frozen=True)
class SweepConfig:
    """Dimensions, noise grid and parameter choice of a sweep."""

    n: int
    m: int
    sparsity: int
    deltas: tuple
    big_c: float = 1.0
    model: str = "relaxed"
    trials: int = 1
    seed: int = 7

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ValueError("deltas must be nonempty")
        if not all(0 < d < math.inf for d in deltas):
            raise ValueError("all noise levels must be positive and finite")
        if any(a <= b for a, b in zip(deltas, deltas[1:])):
            raise ValueError("deltas must be sorted in descending order")
        if len(deltas) > MAX_NOISE_LEVELS:
            raise ValueError(f"at most {MAX_NOISE_LEVELS} noise levels per sweep")
        object.__setattr__(self, "deltas", deltas)
        if self.m < 1:
            raise ValueError(f"need at least one measurement, got m={self.m}")
        if self.model not in ("relaxed", "strict"):
            raise ValueError(f"model must be 'relaxed' or 'strict', got {self.model!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > 100:
            raise ValueError("at most 100 trials (keeps derived seeds disjoint)")
        if not 0 < self.big_c < math.inf:
            raise ValueError("C (alpha = C*delta) must be positive and finite")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must lie in [0, {_MAX_SEED}]")

    def phantom_seed(self):
        return self.seed * 1_000_000 + _PHANTOM_SEED_OFFSET

    def matrix_seed(self):
        return self.seed * 1_000_000 + _MATRIX_SEED_OFFSET

    def noise_seed(self, delta_index, trial):
        return self.seed * 1_000_000 + delta_index * 100 + trial


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point; its fields are the CSV columns, in order."""

    delta: float
    alpha: float
    bregman_x: float
    err_h: float
    residual: float
    iterations: int
    bound_c_rhs: float
    bound_d_rhs: float
    pass_c: bool | None
    pass_d: bool | None


CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ``log err`` against ``log delta``."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


@dataclass(frozen=True)
class SweepResult:
    records: list
    fit: RateFit
    all_converged: bool
    wall_time: float


def make_phantom(n, sparsity, seed, basis, w):
    """Draw a sparse phantom compatible with the forward operator.

    The support always contains the coarsest scaling index 0 (signals with
    zero mean interact badly with 0/1 sensing matrices) and otherwise draws
    uniformly from the coarsest quarter of the coefficient indices.
    Coefficients are uniform in ``+-[0.5, 1.5]``.  Only the integration
    operator (inverted exactly) and the identity support phantom generation.
    """
    n = int(n)
    sparsity = int(sparsity)
    if basis.n != n or w.matrix.shape != (n, n):
        raise ValueError("phantom, basis and operator sizes must agree")
    if sparsity < 0 or sparsity > n // 8:
        raise ValueError(f"sparsity must lie in [0, n/8] = [0, {n // 8}]")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    coeffs = np.zeros(n)
    if sparsity > 0:
        pool = 1 + rng.permutation(max(n // 4, 1) - 1)[: sparsity - 1]
        support = np.sort(np.r_[0, pool].astype(int))
        magnitudes = rng.uniform(0.5, 1.5, size=sparsity)
        signs = rng.choice([-1.0, 1.0], size=sparsity)
        coeffs[support] = magnitudes * signs
    h_star = basis.reconstruct(coeffs)
    x_star = _inverse(w, h_star)
    if x_star is None:
        raise PhantomError(
            "phantom generation needs an exactly invertible forward operator "
            "(integration or identity)"
        )
    gap = float(np.linalg.norm(w.matrix @ x_star - h_star))
    if gap > 1e-12 * max(1.0, float(np.linalg.norm(h_star))):
        raise PhantomError(f"forward-inverse round trip off by {gap:.3e}")
    found = coeff_support(basis.decompose(h_star))
    if len(found) != sparsity:
        raise PhantomError(
            f"phantom support has {len(found)} coefficients, wanted {sparsity}"
        )
    return Phantom(x_star=x_star, h_star=h_star)


def add_noise(y_star, delta, seed):
    """Add a seeded direction of norm ``delta`` (positive, finite) to ``y_star``."""
    y_star = np.asarray(y_star, dtype=float)
    if not 0 < delta < math.inf:
        raise ValueError("the noise level must be positive and finite")
    if y_star.shape[0] == 0:
        raise ValueError("cannot add noise of positive norm to empty data")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = rng.standard_normal(y_star.shape[0])
    return y_star + (delta / float(np.linalg.norm(g))) * g


def fit_rate(deltas, errors):
    """Fit ``log err = slope * log delta + intercept``; tiny errors excluded."""
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > _ERR_FLOOR
    deltas, errors = deltas[keep], errors[keep]
    points = int(deltas.shape[0])
    if points < 2:
        return RateFit(float("nan"), float("nan"), 0.0, points)
    ld = np.log(deltas)
    le = np.log(errors)
    design = np.column_stack([ld, np.ones(points)])
    coef, *_ = np.linalg.lstsq(design, le, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(coef[0]), float(coef[1]), r2, points)


def solve_record(cfg, phantom, w, a, l1, i, t, constants=None,
                 solver_cfg=None, warm=None, trace=None, _spectral=None):
    """``(SweepRecord, SolveResult)`` of delta index ``i``, trial ``t`` of ``cfg``.

    Draws ``y_delta`` with ``||y_delta - A h*|| = cfg.deltas[i]``, solves at
    ``alpha = C delta`` from ``warm`` (cold when ``None``), writing ``trace``,
    and measures the solver's estimate ``result.h`` of ``h* = W x*``.  The
    residual is that of the coupling ``(x, h) -> (W x - h, A h)`` against
    ``(0, y_delta)``: ``||A h - y_delta||`` for the strict ``h = W x``.  With
    ``constants`` the record carries the bound sides and their pass flags.
    ``_spectral`` is :func:`run_sweep`'s ``_singular_basis``, else ``None``.
    """
    delta = cfg.deltas[i]
    alpha = cfg.big_c * delta
    y_delta = add_noise(a.matrix @ phantom.h_star, delta, cfg.noise_seed(i, t))
    problem = Problem(cfg.model, w, a, y_delta, alpha, l1, _spectral)
    res = solve(problem, solver_cfg, trace=trace, warm=warm)
    stacked = np.concatenate([w.matrix @ res.x - res.h, a.matrix @ res.h - y_delta])
    err_h = float(np.linalg.norm(res.h - phantom.h_star))
    breg = bregman_quadratic(res.x, phantom.x_star)
    c_rhs = d_rhs = float("nan")
    pass_c = pass_d = None
    if constants is not None:
        c_rhs, d_rhs = constants.c * delta, constants.d * delta
        pass_c = breg <= c_rhs * (1.0 + BOUND_PASS_REL) + BOUND_PASS_ABS
        pass_d = err_h <= d_rhs * (1.0 + BOUND_PASS_REL) + BOUND_PASS_ABS
    record = SweepRecord(
        delta=delta,
        alpha=alpha,
        bregman_x=breg,
        err_h=err_h,
        residual=float(np.linalg.norm(stacked)),
        iterations=res.iterations,
        bound_c_rhs=c_rhs,
        bound_d_rhs=d_rhs,
        pass_c=pass_c,
        pass_d=pass_d,
    )
    return record, res


def run_sweep(cfg, phantom, w, a, l1, constants=None, solver_cfg=None):
    """Run the noise-level sweep and fit the rate on per-delta medians.

    Records run delta by delta, trials innermost, each one
    :func:`solve_record`.  The first delta's solves start cold; every later
    one warm-starts from the same trial's record at the previous delta when
    that solve converged, and cold otherwise (see
    :func:`~l1coreg.solvers.solve`: a warm start is finished by active-set
    steps when their point verifies, by ADMM otherwise).  Replaying one
    record with a cold :func:`~l1coreg.solvers.solve` therefore reaches the
    same optimum to within ``solver_cfg.tol``, not the same bits.  ``err_h``
    is the error of the solver's estimate of ``h* = W x*``, ``result.h``,
    for both models.
    W's spectrum, ``Phi U`` and ``A U`` are formed once, at the first record.

    Parameters
    ----------
    cfg : SweepConfig
    phantom : Phantom
    w, a : DenseMap
        Forward and sensing operators (dimensions must match ``cfg``), as
        built by :func:`default_operators` for a replayable sweep.
    l1 : WeightedL1
        The penalty, on a basis of size ``cfg.n``.
    constants : RateConstants, optional
        When given, every record carries the theoretical bound sides
        ``c*delta`` / ``d*delta`` and their pass flags.
    solver_cfg : SolverConfig, optional

    Raises
    ------
    SweepError
        If any record's solve raises; non-convergence is not an error and
        only clears ``all_converged``.
    """
    start = time.perf_counter()
    if w.matrix.shape[1] != cfg.n or a.matrix.shape[0] != cfg.m:
        raise ValueError("operator dimensions do not match the sweep config")

    records = []
    all_converged = True
    # the converged solve each trial's next record starts from, else None
    warm = [None] * cfg.trials
    spectral = None
    for i, delta in enumerate(cfg.deltas):
        for t in range(cfg.trials):
            try:
                _check_l1_size(w, l1)
                spectral = spectral or _singular_basis(w, a, l1.basis)
                record, res = solve_record(cfg, phantom, w, a, l1, i, t, constants,
                                           solver_cfg, warm[t], _spectral=spectral)
            except Exception as exc:
                raise SweepError(
                    f"solve failed at delta={delta!r} trial={t}: {exc}"
                ) from exc
            records.append(record)
            all_converged = all_converged and res.converged
            warm[t] = res if res.converged else None

    errs = np.array([r.err_h for r in records]).reshape(-1, cfg.trials)
    fit = fit_rate(cfg.deltas, np.median(errs, axis=1))
    return SweepResult(
        records=records,
        fit=fit,
        all_converged=all_converged,
        wall_time=time.perf_counter() - start,
    )


def _format_cell(value):
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _record_row(rec):
    return ",".join(_format_cell(getattr(rec, name)) for name in CSV_COLUMNS)


def emit_csv(records, fit, path, metadata=None):
    """Write sweep records with a ``#``-prefixed metadata header.

    The metadata block carries everything needed to replay the sweep
    (operator names, sizes, seeds, solver settings) plus the rate fit.
    Lines starting with ``# walltime`` are excluded from
    :func:`determinism_hash`.
    """
    if not records:
        raise ValueError("refusing to emit an empty record list")
    lines = ["# l1coreg_sweep_csv = 1", f"# version = {__version__}"]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(f"# fit_slope = {fit.slope!r}")
    lines.append(f"# fit_intercept = {fit.intercept!r}")
    lines.append(f"# fit_r_squared = {fit.r_squared!r}")
    lines.append(f"# fit_points_used = {fit.points_used}")
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(_record_row(rec) for rec in records)
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return text


def determinism_hash(text):
    """SHA-256 over the CSV text :func:`emit_csv` returns, skipping wall-time lines."""
    kept = [
        line for line in text.splitlines() if not line.startswith("# walltime")
    ]
    payload = "\n".join(kept).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


#: A measured slope at or above this, on an instance whose certificate
#: search failed, is flagged for review (it would contradict the necessity
#: of the conditions if the search outcome were conclusive).
CONVERSE_SLOPE_FLAG = 0.95


def converse_consistency_flag(certificate_valid, slope):
    """Monitoring flag relating certificate outcome and measured rate.

    Returns True when the combination deserves attention: a near-linear
    measured slope without a found certificate.  The certificate search is
    heuristic, so this marks records for review rather than failing them.
    """
    if certificate_valid:
        return False
    return bool(np.isfinite(slope) and slope >= CONVERSE_SLOPE_FLAG)


def default_operators(cfg, forward="integration"):
    """Standard sweep operators ``(W, A)``.

    ``W`` is the forward map named by ``forward`` (``"integration"`` or
    ``"identity"``); ``A`` is always the Bernoulli sensing matrix drawn from
    ``cfg.m``, ``cfg.n`` and ``cfg.matrix_seed()``.
    """
    w = _forward(forward, cfg.n)
    return w, BernoulliSensing(cfg.m, cfg.n, seed=cfg.matrix_seed())


def sweep_metadata(cfg, l1, solver_cfg, forward):
    """Metadata block for CSV emission; everything needed for bit-exact replay.

    ``forward``, ``n``, ``m`` and ``matrix_seed`` are the inputs of
    :func:`default_operators`, so they rebuild ``W`` and ``A`` exactly.
    ``kappa`` is one weight when all weights are equal, else the list.
    """
    meta = {
        "model": cfg.model,
        "n": str(cfg.n),
        "m": str(cfg.m),
        "sparsity": str(cfg.sparsity),
        "seed": str(cfg.seed),
        "big_c": repr(float(cfg.big_c)),
        "trials": str(cfg.trials),
        "deltas": ",".join(repr(d) for d in cfg.deltas),
        "forward": forward,
        "basis_n": str(l1.basis.n),
        "basis_levels": str(l1.basis.levels),
        "kappa": (
            repr(float(l1.kappa[0]))
            if np.all(l1.kappa == l1.kappa[0])
            else ",".join(repr(float(k)) for k in l1.kappa)
        ),
        "solver_max_iters": str(solver_cfg.max_iters),
        "solver_tol": repr(solver_cfg.tol),
        "solver_rho": repr(solver_cfg.rho),
        "phantom_seed": str(cfg.phantom_seed()),
        "matrix_seed": str(cfg.matrix_seed()),
        "noise_seed_rule": "seed*1000000 + delta_index*100 + trial",
        "solver_start_rule": (
            "cold at delta_index 0, else the same trial's previous record "
            "when it converged"
        ),
        "solver_rho_rule": (
            f"solver_rho on a cold start, else the final rho of the start; "
            f"every {_BALANCE_EVERY} iterations rho *= sqrt(primal/dual), each "
            f"residual taken as at least solver_tol, when that ratio is outside "
            f"[1/{_BALANCE_RATIO:g}, {_BALANCE_RATIO:g}]; when a residual is "
            f"within solver_tol, only back toward solver_rho by at most "
            f"{_BALANCE_RATIO:g}x; at most {_MAX_REBUILDS} changes per solve"
        ),
        "solver_finish_rule": (
            f"a warm start first takes primal-dual active-set steps from the "
            f"support and signs of its c until the set and signs repeat, at "
            f"most {_MAX_ACTIVE_SET_STEPS} steps on sets of at most "
            f"{_FACTOR_BLOCK} indices; their point is kept when its signs hold "
            f"and kkt_residual <= {_KKT_TOL:g} (iterations 0); otherwise, and "
            f"when an earlier set comes back, ADMM runs from the warm start"
        ),
        "phantom_support_rule": "index 0 plus draws from coarsest quarter",
    }
    return meta
