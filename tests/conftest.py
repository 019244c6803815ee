from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from l1coreg.basis import WaveletBasis, support as coeff_support
from l1coreg.certificates import BOUND_SLACK_REL, _BOUND_SLACK_ABS
from l1coreg.experiments import CSV_COLUMNS, RateFit, SweepRecord
from l1coreg.operators import BernoulliSensing, identity
from l1coreg.regularizers import WeightedL1, subgradient_from_coefficients
from l1coreg.solvers import SolverConfig

#: Settings of the accurate solves the tests need: residuals at 1e-14.
TIGHT = SolverConfig(max_iters=500_000, tol=1e-14)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def basis8():
    return WaveletBasis(8)


@pytest.fixture
def l1_unit8(basis8):
    return WeightedL1(basis8)


def make_sparse_signal(basis, support, values):
    """Signal with prescribed wavelet coefficients."""
    c = np.zeros(basis.n)
    for lam, val in zip(support, values):
        c[lam] = val
    return basis.reconstruct(c)


def subgradient_at(l1, h_star, fill=None):
    """Subgradient of ``l1`` at ``h_star``: ``kappa * sign(c*)`` on the support
    of ``c* = Phi h_star`` and ``fill`` (default zero, which maximizes the
    margin) elsewhere, validated by ``subgradient_from_coefficients``."""
    c_star = l1.basis.decompose(h_star)
    on = list(coeff_support(c_star))
    eta = np.zeros(l1.basis.n) if fill is None else np.array(fill, dtype=float)
    eta[on] = l1.kappa[on] * np.sign(c_star[on])
    return subgradient_from_coefficients(l1, h_star, eta)


def certified_identity_instance(n, m, sparsity, seed):
    """Identity-forward instance of the kind used by the acceptance suite.

    Built through the production phantom generator so tests see exactly what
    sweeps produce.
    """
    from l1coreg.experiments import SweepConfig, make_phantom

    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    w = identity(n)
    cfg = SweepConfig(n=n, m=m, sparsity=sparsity, deltas=(1.0,), seed=seed)
    a = BernoulliSensing(m, n, seed=cfg.matrix_seed())
    phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
    return basis, l1, w, a, phantom.x_star, phantom.h_star


def coupling_map(w, a):
    """Relaxed coupling ``(x, h) -> (W x - h, A h)`` as the dense block matrix
    ``[[W, -I], [0, A]]`` acting on ``x`` stacked before ``h``."""
    w_mat = w.matrix
    a_mat = a.matrix
    return np.block([
        [w_mat, -np.eye(w_mat.shape[0])],
        [np.zeros((a_mat.shape[0], w_mat.shape[1])), a_mat],
    ])


def natural_residual(p, res):
    """Relative KKT residual of ``res``, from dense matrices alone.

    In the coefficients ``c = Phi h`` the point is optimal exactly when
    ``c - S_{alpha kappa}(c - Phi grad_h f)`` vanishes (``S`` is the
    soft-threshold), and for the relaxed model also ``grad_x f``.  For the
    strict model ``x`` must lie in the range of ``W*``.  The value is scaled
    by ``||Phi A* y||_inf``, the smallest alpha with ``h = 0`` optimal.
    """
    phi = p.l1.basis.decompose(np.eye(p.l1.basis.n))
    w = p.w.matrix
    a = p.a.matrix
    y = p.y_delta
    if p.model == "relaxed":
        h = res.h
        coupling = w @ res.x - h
        grad_x = w.T @ coupling + p.alpha * res.x
        grad_h = -coupling + a.T @ (a @ h - y)
    else:
        # x = W* z must be the least-norm preimage of h = W x
        h = w @ res.x
        z = np.linalg.lstsq(w.T, res.x, rcond=None)[0]
        grad_x = w.T @ z - res.x
        grad_h = a.T @ (a @ h - y) + p.alpha * z
    c = phi @ h
    g = c - phi @ grad_h
    r_c = c - np.sign(g) * np.maximum(np.abs(g) - p.alpha * p.l1.kappa, 0.0)
    worst = max(np.max(np.abs(r_c)), np.max(np.abs(grad_x)))
    return worst / np.max(np.abs(phi @ (a.T @ y)))


class ExactPoint(NamedTuple):
    x: np.ndarray
    h: np.ndarray
    objective: float


def exact_minimizer(p, seed):
    """The exact minimizer of ``p`` on the support and signs of ``seed.c``.

    Eliminating ``x`` leaves, for both models, ``min c*Hc/2 - b*c +
    alpha sum kappa |c|`` in ``c = Phi h``, with ``G = W W* + eps I``
    (``eps = alpha`` relaxed, 0 strict), ``H = Phi (A*A + alpha G^-1) Phi*``
    and ``b = Phi A* y``.  One primal-dual active-set step (Hintermueller,
    Ito & Kunisch, SIAM J. Optim. 13, 2002) solves
    ``H_SS c_S = b_S - alpha kappa_S sigma_S`` on the support ``S`` and
    signs ``sigma`` of ``seed.c`` and sets ``c = 0`` off ``S``; then
    ``h = Phi* c`` and ``x = W* G^-1 h``.  The point is returned only when
    its KKT conditions hold: ``sign(c_S) = sigma``,
    ``|(b - Hc)_l| <= alpha kappa_l`` off ``S`` and a natural residual of
    at most 1e-12.  Otherwise the calling test fails; there is no fallback.
    """
    phi = p.l1.basis.decompose(np.eye(p.l1.basis.n))
    w = p.w.matrix
    a = p.a.matrix
    g = w @ w.T
    if p.model == "relaxed":
        g += p.alpha * np.eye(len(g))
    hess = phi @ (a.T @ a + p.alpha * np.linalg.inv(g)) @ phi.T
    b = phi @ (a.T @ p.y_delta)
    level = p.alpha * p.l1.kappa
    on = np.flatnonzero(seed.c)
    off = np.flatnonzero(seed.c == 0)
    sigma = np.sign(seed.c[on])
    c = np.zeros(len(b))
    c[on] = np.linalg.solve(hess[np.ix_(on, on)], b[on] - level[on] * sigma)
    h = phi.T @ c
    x = w.T @ np.linalg.solve(g, h)
    wx = w @ x
    # the strict functional depends on x alone, through h = W x
    seen = h if p.model == "relaxed" else wx
    fit = np.concatenate([wx - seen, a @ seen - p.y_delta])
    penalty = 0.5 * float(x @ x) + float(p.l1.kappa @ np.abs(phi @ seen))
    point = ExactPoint(x, h, 0.5 * float(fit @ fit) + p.alpha * penalty)
    grad = b - hess @ c
    checks = {
        "sign(c_S) = sigma": np.array_equal(np.sign(c[on]), sigma),
        "|(b - Hc)_l| <= alpha kappa_l off S": bool(
            np.all(np.abs(grad[off]) <= level[off])
        ),
        "natural residual <= 1e-12": natural_residual(p, point) <= 1e-12,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        pytest.fail(f"active-set point fails its KKT check: {', '.join(failed)}")
    return point


@dataclass(frozen=True)
class VariationalBoundsReport:
    """Both sides of the residual and Bregman bounds for one solve."""

    delta: float
    residual_lhs: float
    residual_rhs: float
    residual_ok: bool
    bregman_lhs: float
    bregman_rhs: float
    bregman_ok: bool

    @property
    def all_ok(self):
        return self.residual_ok and self.bregman_ok


def check_variational_bounds(m, source_elem, x_sol, y_delta, y_star, alpha, q_bregman):
    """Check the residual and Bregman bounds of variational regularization.

    For a minimizer of ``||M x - y_delta||^2/2 + alpha Q(x)`` whose penalty
    admits the source element ``source_elem`` (``M* source_elem`` a
    subgradient at the truth), the data residual is bounded by
    ``delta + 2 alpha ||source_elem||`` and the Bregman distance by
    ``(delta + alpha ||source_elem||)^2 / (2 alpha)``.  Both checks carry a
    relative slack of ``BOUND_SLACK_REL`` for solver suboptimality; this is
    report-only and never raises.
    """
    source_elem = np.asarray(source_elem, dtype=float)
    x_sol = np.asarray(x_sol, dtype=float)
    y_delta = np.asarray(y_delta, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    delta = float(np.linalg.norm(y_delta - y_star))
    eta_norm = float(np.linalg.norm(source_elem))

    residual_lhs = float(np.linalg.norm(m @ x_sol - y_delta))
    residual_rhs = delta + 2.0 * alpha * eta_norm
    bregman_rhs = (delta + alpha * eta_norm) ** 2 / (2.0 * alpha)
    res_ok = residual_lhs <= residual_rhs * (1.0 + BOUND_SLACK_REL) + _BOUND_SLACK_ABS
    breg_ok = q_bregman <= bregman_rhs * (1.0 + BOUND_SLACK_REL) + _BOUND_SLACK_ABS
    return VariationalBoundsReport(
        delta=delta,
        residual_lhs=residual_lhs,
        residual_rhs=residual_rhs,
        residual_ok=bool(res_ok),
        bregman_lhs=float(q_bregman),
        bregman_rhs=bregman_rhs,
        bregman_ok=bool(breg_ok),
    )


def _parse_cell(name, cell):
    if name == "iterations":
        return int(cell)
    if name in ("pass_c", "pass_d"):
        if cell == "na":
            return None
        return cell == "1"
    return float(cell)


def parse_csv(path):
    """Parse the :func:`emit_csv` file ``path`` into ``(records, metadata, fit)``."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    metadata = {}
    records = []
    saw_header = False
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(" = ")
            metadata[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != ",".join(CSV_COLUMNS):
                raise ValueError(f"unexpected CSV header: {line!r}")
            saw_header = True
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(
                f"row has {len(cells)} columns, expected {len(CSV_COLUMNS)}: "
                f"{line!r}"
            )
        records.append(SweepRecord(**{
            name: _parse_cell(name, cell) for name, cell in zip(CSV_COLUMNS, cells)
        }))
    fit = None
    if "fit_slope" in metadata:
        fit = RateFit(
            slope=float(metadata["fit_slope"]),
            intercept=float(metadata["fit_intercept"]),
            r_squared=float(metadata["fit_r_squared"]),
            points_used=int(metadata["fit_points_used"]),
        )
    return records, metadata, fit
