"""ADMM for the strict and relaxed co-regularization models.

The relaxed functional

    B(x, h) = ||W x - h||^2/2 + ||A h - y||^2/2 + alpha (||x||^2/2 + ||h||_{1,kappa})

and the strict functional

    A(x) = ||A W x - y||^2/2 + alpha (||x||^2/2 + ||W x||_{1,kappa})

differ only in how the indirect data ``h`` is tied to ``x``.  Eliminating
``x`` leaves, for both, one problem in ``h``

    ||A h - y||^2/2 + (alpha/2) h* G^{-1} h + alpha ||Phi h||_{1,kappa}

with ``G = W W* + eps I``: ``eps = alpha`` for the relaxed model (minimizing
over ``x`` gives ``x = (W*W + alpha I)^{-1} W* h``) and ``eps = 0`` for the
strict one (``h = W x`` with ``x = W* G^{-1} h`` the least-norm preimage,
which needs ``W`` of full row rank).

One ADMM loop on the split ``Phi h = c`` solves it.  Its v-step solves one
symmetric positive definite system ``S h = A* y + rho Phi* d`` with
``S = A*A + rho I + alpha G^{-1}`` and ``d = c - u``.  ``Phi`` is
orthonormal, so the c-step is a weighted soft-threshold, and the v-step
enters the loop only through the affine map ``d -> c0 + Q d`` with
``Q = rho Phi S^{-1} Phi*``.  That map is a dense matrix formed once per
value of rho by whitening with the Cholesky factors of ``G`` and ``S``, or,
when ``W`` is the identity and ``A`` has fewer rows than columns, through
Woodbury from the factor of the m-by-m ``K = beta I + A A*``; so an
iteration costs one matvec and no operator apply, wavelet transform or
linear solve.  The dual residual of the stopping rule,
``rho ||c_k - c_{k-1}||`` for both models, can stop the loop only together
with the primal one, so it is computed only on iterations whose primal
residual is within ``tol``, on the iterations that balance rho, or on
every iteration when tracing.

The penalty rho adapts by residual balancing: every
:data:`_BALANCE_EVERY` iterations, when the primal and dual residuals
differ by more than a factor :data:`_BALANCE_RATIO`, rho moves by the
square root of their ratio (when one of them is within ``tol``, only back
toward ``SolverConfig.rho``, by at most that factor) and the map is
rebuilt, at most :data:`_MAX_REBUILDS` times per solve.
``SolverConfig.rho`` is where a cold solve starts.

Each factor is used once, to apply its inverse to a fixed right-hand side,
so none is kept: :func:`_whiten` does the forward substitution inside a
blocked factorization.  LAPACK sees only diagonal blocks of
:data:`_FACTOR_BLOCK` rows, and everything wider is a matrix product.
Threaded LAPACK factorizations round differently under different BLAS
thread counts from about side 128 on, while products, and LAPACK calls this
narrow, give the same bits; so solve outputs do not depend on the BLAS
thread count.  The build reads the matrices ``W`` and ``A`` hold, which
their builders kept within :data:`~l1coreg.operators.DEFAULT_MATERIALIZE_BUDGET`.

Both models share one :class:`Problem` type.  The loop is deterministic:
it starts from ``c = u = 0`` at ``cfg.rho``, or from the final state
``(c, rho u, rho)`` of an earlier :class:`SolveResult` passed as ``warm``,
and branches on the data only in the stopping rule and the balancing of
rho.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .operators import _is_identity
from .regularizers import WeightedL1, soft_threshold

__all__ = [
    "Problem",
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "objective_relaxed",
    "objective_strict",
    "solve_relaxed",
    "solve_strict",
    "solve",
]

#: Side of the diagonal blocks of :func:`_whiten`, the widest matrix any
#: LAPACK call of a solve sees.
_FACTOR_BLOCK = 64

#: Residual balancing of rho: iterations between checks, the largest ratio
#: of the primal to the dual residual (or its inverse) left alone, and the
#: most coupling rebuilds one solve makes.
_BALANCE_EVERY = 50
_BALANCE_RATIO = 5.0
_MAX_REBUILDS = 30


class SolverError(RuntimeError):
    """A solve produced non-finite values or could not proceed."""


def _check_problem_dims(w, a, y_delta, alpha, l1):
    w_rows = w.matrix.shape[0]
    a_rows, a_cols = a.matrix.shape
    if w_rows != a_cols:
        raise ValueError(
            f"W maps into R^{w_rows} but A expects R^{a_cols}"
        )
    if l1.basis.n != w_rows:
        raise ValueError(
            f"l1 basis size {l1.basis.n} != intermediate dimension {w_rows}"
        )
    if y_delta.shape != (a_rows,):
        raise ValueError(
            f"data length {y_delta.shape} != measurement dimension {a_rows}"
        )
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


@dataclass(frozen=True)
class Problem:
    """Data of one co-regularized problem: model, operators, noisy data, weight.

    ``model`` is ``"relaxed"`` or ``"strict"``; both models penalize the
    signal by ``||x||^2 / 2`` and its indirect data ``W x`` (or ``h``) by
    the weighted l1 norm ``l1``.  The strict model needs ``W`` of full row
    rank (onto), so that ``W W*`` is positive definite; :func:`solve`
    raises ``ValueError`` otherwise.  The relaxed model takes any ``W``.
    """

    model: str
    w: object
    a: object
    y_delta: np.ndarray
    alpha: float
    l1: WeightedL1

    def __post_init__(self):
        if self.model not in ("relaxed", "strict"):
            raise ValueError(
                f"model must be 'relaxed' or 'strict', got {self.model!r}"
            )
        y = np.asarray(self.y_delta, dtype=float).copy()
        if not np.all(np.isfinite(y)):
            raise ValueError("data y_delta must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y_delta", y)
        object.__setattr__(self, "alpha", float(self.alpha))
        _check_problem_dims(self.w, self.a, y, self.alpha, self.l1)


def _require_model(p, model):
    if p.model != model:
        raise ValueError(f"solve_{model} got a {p.model} problem")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limit, stopping tolerance and starting ADMM penalty.

    ``tol`` bounds both the absolute primal residual ``||Phi h - c||`` and
    the absolute dual residual ``rho ||c_k - c_{k-1}||`` of either model.
    ``rho`` is the penalty a cold solve of either model starts from; the
    loop balances it against the residuals from there, and a warm start
    resumes at the penalty of its ``warm`` result instead.
    """

    max_iters: int = 20_000
    tol: float = 1e-10
    rho: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")


@dataclass
class SolveResult:
    """Output of a solve: iterates, objective and the final ADMM residuals.

    ``c``, ``multiplier`` and ``rho`` are the final ADMM state: the exactly
    sparse coefficients with ``h = Phi* c``, the unscaled multiplier
    ``rho u`` of the split ``Phi h = c``, whose optimal value does not
    depend on ``rho``, and the penalty the loop ended with.  Passing the
    result as ``warm`` to :func:`solve` restarts ADMM there.
    ``primal_residual`` (``||Phi h - c||``) and ``dual_residual``
    (``rho ||c_k - c_{k-1}||``) are the last iteration's; ``rebuilds``
    counts the changes of rho, each a new coupling.
    """

    x: np.ndarray
    h: np.ndarray
    c: np.ndarray
    multiplier: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    rho: float
    rebuilds: int
    converged: bool
    wall_time: float

    @property
    def fixed_point_residual(self):
        """The larger of the two final residuals."""
        return max(self.primal_residual, self.dual_residual)


def objective_relaxed(p, x, h):
    """Value of the relaxed functional at ``(x, h)``."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    coupling = p.w.matrix @ x - h
    misfit = p.a.matrix @ h - p.y_delta
    return (
        0.5 * float(coupling @ coupling)
        + 0.5 * float(misfit @ misfit)
        + p.alpha * (0.5 * float(x @ x) + p.l1.eval(h))
    )


def objective_strict(p, x):
    """Value of the strict functional at ``x``: the relaxed one at ``h = W x``."""
    return objective_relaxed(p, x, p.w.matrix @ x)


def _whiten(mat, rhs=None):
    """``L^{-1} rhs`` for the Cholesky factor ``L`` of the positive definite ``mat``.

    A right-looking blocked factorization that carries the forward
    substitution along: each diagonal block of :data:`_FACTOR_BLOCK` rows is
    factored by ``np.linalg.cholesky`` and inverted, which finishes that
    block's rows of the result; then the trailing matrix, in its block
    columns on and below the diagonal only (the later blocks read nothing
    else), and the trailing rows of the result are updated one block at a
    time, so no temporary is wider than a block.  ``rhs`` is a vector or a
    matrix and is not changed; ``None`` stands for the identity and gives
    ``L^{-1}`` itself, whose block rows are zero right of the diagonal, so
    its updates touch only the columns left of the block's end.  ``mat`` is
    overwritten, and no factor is kept.  Raises ``np.linalg.LinAlgError``
    when ``mat`` is not positive definite.
    """
    n = mat.shape[0]
    lower = rhs is None
    out = np.eye(n) if lower else np.array(rhs, dtype=float, order="C")
    for j in range(0, n, _FACTOR_BLOCK):
        k = min(j + _FACTOR_BLOCK, n)
        cols = slice(k) if lower else Ellipsis
        inv11 = np.tril(np.linalg.inv(np.linalg.cholesky(mat[j:k, j:k])))
        out[j:k, cols] = inv11 @ out[j:k, cols]
        panel = mat[k:, j:k] @ inv11.T
        for i in range(k, n, _FACTOR_BLOCK):
            e = min(i + _FACTOR_BLOCK, n)
            mat[i:, i:e] -= panel[i - k:] @ panel[i - k:e - k].T
            out[i:e, cols] -= panel[i - k:e - k] @ out[j:k, cols]
    return out


def _trace_row(trace, it, objective, fpr, primal, dual, rho):
    trace.write(f"{it},{objective!r},{fpr!r},{primal!r},{dual!r},{rho!r}\n")


def _woodbury(p):
    """Whether :func:`_coupling` builds through the m-by-m system of ``A A*``.

    True when ``W`` is the identity and ``A`` has fewer rows than columns.
    """
    return p.a.matrix.shape[0] < p.w.matrix.shape[0] and _is_identity(p.w.matrix)


def _coupling(p, rho):
    """The v-step ``S h = A* y + rho Phi* d`` of either model, as two maps.

    ``fv_of(d) = Phi h = c0 + Q d`` is one matvec with the dense
    ``Q = rho Phi S^{-1} Phi*``, the one matvec of every iteration.
    ``x_of(d) = W* G^{-1} h`` runs only after the loop or for a trace row.

    When ``W`` is the identity and ``A`` is m-by-n with ``m < n``
    (:func:`_woodbury`), ``G = gamma I`` (``gamma = 1 + alpha`` relaxed, 1
    strict), so ``S = A*A + beta I`` with ``beta = rho + alpha/gamma``.
    With ``B = A Phi*`` and ``R = L_K^{-1} B`` for the Cholesky factor
    ``L_K`` of ``K = beta I + A A*``, Woodbury gives
    ``Q = (rho/beta)(I - R* R)`` and ``c0 = (u - R* R u)/beta`` with
    ``u = Phi A* y``, and ``x_of(d) = Phi* fv_of(d)/gamma``: a build is one
    m-by-m factorization, and holds three m-by-n arrays while it whitens
    and then only ``R`` and ``Q``.

    Otherwise, with ``L_G`` and ``L_S`` the Cholesky factors of ``G`` and
    ``S``, the build keeps ``g_white = L_G^{-1}``, so ``alpha G^{-1}`` is
    ``alpha g_white* g_white``, and whitens ``Phi*`` by ``S`` into
    ``M = L_S^{-1} Phi*``; then ``Q = rho M* M``, ``Phi* Phi = I`` gives
    ``c0 = M* M Phi A* y``, and ``x_of`` is two triangular matvecs with
    ``g_white``.  ``G``, ``S`` and ``M`` are dropped once used, so the build
    keeps at most three n-by-n arrays alive besides ``Phi``, ``W`` and
    ``A``, which the basis and the operators hold.
    Raises ``ValueError`` when the strict ``G = W W*`` does not factor.
    """
    phi = p.l1.basis.matrix
    n = phi.shape[0]
    if _woodbury(p):
        gamma = 1.0 + p.alpha if p.model == "relaxed" else 1.0
        beta = rho + p.alpha / gamma
        a_mat = p.a.matrix
        k_mat = a_mat @ a_mat.T
        k_mat.flat[:: len(k_mat) + 1] += beta
        r_mat = _whiten(k_mat, a_mat @ phi.T)
        del k_mat
        u = phi @ (a_mat.T @ p.y_delta)
        c0 = (u - r_mat.T @ (r_mat @ u)) / beta
        q_mat = r_mat.T @ r_mat
        del r_mat
        q_mat *= -rho / beta
        q_mat.flat[:: n + 1] += rho / beta

        def fv_of(d):
            return c0 + q_mat @ d

        def x_of(d):
            return (phi.T @ fv_of(d)) / gamma

        return x_of, fv_of

    g_mat = p.w.matrix @ p.w.matrix.T
    if p.model == "relaxed":
        g_mat.flat[:: n + 1] += p.alpha
    try:
        g_white = _whiten(g_mat)
    except np.linalg.LinAlgError:
        raise ValueError(
            "the strict model needs W of full row rank (W W* must factor)"
        ) from None
    del g_mat
    s_mat = g_white.T @ g_white
    s_mat *= p.alpha
    s_mat += p.a.matrix.T @ p.a.matrix
    s_mat.flat[:: n + 1] += rho
    m_mat = _whiten(s_mat, phi.T)
    del s_mat
    q_mat = m_mat.T @ m_mat
    del m_mat
    c0 = q_mat @ (phi @ (p.a.matrix.T @ p.y_delta))
    q_mat *= rho

    def fv_of(d):
        return c0 + q_mat @ d

    def x_of(d):
        return p.w.matrix.T @ (g_white.T @ (g_white @ (phi.T @ fv_of(d))))

    return x_of, fv_of


def _start(warm, n, rho):
    """The ADMM start ``(c, u, rho)``: zero at ``rho``, or the end of ``warm``.

    A warm start resumes at ``warm.rho``, the penalty its solve ended with.
    """
    if warm is None:
        return np.zeros(n), np.zeros(n), rho
    c = np.array(warm.c, dtype=float)
    u = np.array(warm.multiplier, dtype=float)
    if c.shape != (n,) or u.shape != (n,):
        raise ValueError(
            f"warm start has shapes {c.shape} and {u.shape}, expected ({n},)"
        )
    rho = float(warm.rho)
    finite = np.all(np.isfinite(c)) and np.all(np.isfinite(u))
    if not (finite and 0 < rho < math.inf):
        raise ValueError("warm start must be finite, with rho > 0")
    return c, u / rho, rho


def _admm(p, cfg, trace, warm):
    """Scaled ADMM on the split ``Phi h = c`` of either model, balancing rho.

    Per iteration: the v-step, which enters only through ``Phi h``, the
    affine map of :func:`_coupling`; a c-step soft-thresholding
    ``Phi h + u`` at level ``alpha/rho`` per weight; and the dual ascent
    ``u <- u + Phi h - c``.  ``x`` itself is formed after the loop and for
    trace rows only.  The dual residual ``rho ||c_k - c_{k-1}||`` is
    computed only when the primal one is within ``tol``, since it cannot
    stop the loop otherwise, on balancing iterations, or when a trace row
    prints it; a solve that reaches ``max_iters`` computes it for the last
    iteration after the loop, so traced and untraced solves return the same
    bits.

    Every :data:`_BALANCE_EVERY` iterations that do not stop the loop and
    are not the last, rho is balanced (He, Yang & Wang, J. Optim. Theory
    Appl. 106, 2000; Boyd et al. 2011, section 3.4.1): with each residual
    taken as at least ``tol``, when their ratio ``r_p/r_d`` lies outside
    ``[1/_BALANCE_RATIO, _BALANCE_RATIO]``, rho is multiplied by
    ``sqrt(r_p/r_d)``, ``u`` is divided by the same factor so ``rho u`` is
    kept, and the coupling is rebuilt at the new rho after the old one is
    dropped.  At most :data:`_MAX_REBUILDS` rebuilds per solve keep the
    fixed-rho convergence argument valid for the tail.  A residual within
    ``tol`` is often at rounding level, even exactly zero, so it gives the
    direction of the imbalance but not its size.  Then rho only moves back
    toward ``cfg.rho``, by at most ``_BALANCE_RATIO`` and not past it: that
    undoes a penalty carried from a ``warm`` start that does not suit this
    problem, and it never sends rho far from where the caller put it.  (A
    full step on a primal residual of 7e-17 once set rho to 2.6e-7; since
    ``u`` grows like ``1/rho``, the primal residual then stalled at 8e-11
    by rounding.)
    """
    start = time.perf_counter()
    c, u, rho = _start(warm, p.w.matrix.shape[0], cfg.rho)
    x_of, fv_of = _coupling(p, rho)
    thresholds = (p.alpha / rho) * p.l1.kappa
    basis = p.l1.basis

    def objective(x, c):
        if p.model == "strict":
            return objective_strict(p, x)
        return objective_relaxed(p, x, basis.reconstruct(c))

    def dual_residual(dc):
        return rho * math.sqrt(dc.dot(dc))

    if trace is not None:
        trace.write("iter,objective,fpr,primal_res,dual_res,rho\n")

    primal = np.inf
    dual = np.inf
    converged = False
    iterations = 0
    rebuilds = 0
    for k in range(1, cfg.max_iters + 1):
        d = c - u
        fv = fv_of(d)
        c_prev = c
        c = soft_threshold(fv + u, thresholds)
        u = u + fv - c
        r = fv - c
        primal = math.sqrt(r.dot(r))
        if not math.isfinite(primal):
            raise SolverError(f"non-finite iterate at iteration {k}")
        iterations = k
        balance = (
            k % _BALANCE_EVERY == 0
            and k < cfg.max_iters
            and rebuilds < _MAX_REBUILDS
        )
        if primal > cfg.tol and trace is None and not balance:
            continue
        dual = dual_residual(c - c_prev)
        if trace is not None:
            _trace_row(
                trace,
                k,
                objective(x_of(d), c),
                max(primal, dual),
                primal,
                dual,
                rho,
            )
        if primal <= cfg.tol and dual <= cfg.tol:
            converged = True
            break
        if not balance:
            continue
        ratio = max(primal, cfg.tol) / max(dual, cfg.tol)
        if 1 / _BALANCE_RATIO <= ratio <= _BALANCE_RATIO:
            continue
        scale = math.sqrt(ratio)
        new_rho = rho * scale
        if min(primal, dual) <= cfg.tol:
            # the direction of the imbalance, not its size: rho may only
            # return toward cfg.rho, by at most _BALANCE_RATIO; min and
            # max return cfg.rho itself, so rho lands on it exactly
            low = max(min(rho, cfg.rho), rho / _BALANCE_RATIO)
            high = min(max(rho, cfg.rho), rho * _BALANCE_RATIO)
            new_rho = min(max(new_rho, low), high)
            if new_rho == rho:
                continue
            scale = new_rho / rho
        rho = new_rho
        u = u / scale
        x_of = fv_of = None  # free the old coupling before the build
        x_of, fv_of = _coupling(p, rho)
        thresholds = (p.alpha / rho) * p.l1.kappa
        rebuilds += 1
    else:
        # max_iters reached: the last dual residual may not have been needed
        dual = dual_residual(c - c_prev)

    x = x_of(d)
    return SolveResult(
        x=x,
        h=basis.reconstruct(c),
        c=c,
        multiplier=rho * u,
        objective=objective(x, c),
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        rho=rho,
        rebuilds=rebuilds,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )


def solve_relaxed(p, cfg=None, trace=None, warm=None):
    """:func:`solve` for a problem with ``model == "relaxed"``."""
    _require_model(p, "relaxed")
    return _admm(p, cfg or SolverConfig(), trace, warm)


def solve_strict(p, cfg=None, trace=None, warm=None):
    """:func:`solve` for a problem with ``model == "strict"``."""
    _require_model(p, "strict")
    return _admm(p, cfg or SolverConfig(), trace, warm)


def solve(problem, cfg=None, trace=None, warm=None):
    """Minimize ``problem`` by ADMM on the split ``Phi h = c``.

    Converged when the primal residual ``||Phi h - c||`` and the dual
    residual ``rho ||c_k - c_{k-1}||`` are both at most ``cfg.tol``.  An
    iteration costs one n-by-n matvec; the dual residual is computed only
    on iterations whose primal residual is within ``cfg.tol``, on the
    iterations that balance rho, or on every iteration when ``trace`` is
    given.  Every 50 iterations rho is balanced against the two residuals,
    and each change rebuilds the n-by-n map (at most 30 per solve): from one
    m-by-m factorization when ``W`` is the identity and ``A`` is m-by-n
    with ``m < n``, from two n-by-n ones otherwise.  A
    strict ``problem`` whose ``W`` is not of full row rank raises
    ``ValueError``.  ADMM starts from ``c = u = 0`` at ``cfg.rho``, or from
    the final state of ``warm``; a solve restarted from its own converged
    result stops within an iteration or two.

    Parameters
    ----------
    problem : Problem
    cfg : SolverConfig, optional
    trace : writable text stream, optional
        When given, a CSV header and one row
        ``iter,objective,fpr,primal_res,dual_res,rho`` per iteration are
        written to it; ``fpr`` is the larger of the two residuals, and
        ``rho`` the penalty of that iteration.  The caller opens and closes
        the stream.
    warm : SolveResult, optional
        Start from ``c = warm.c``, ``rho = warm.rho`` and
        ``u = warm.multiplier / warm.rho``, typically the result of a nearby
        problem of the same size; ``cfg.rho`` is then unused.  Raises
        ``ValueError`` when that state has the wrong length or is not
        finite.

    Returns
    -------
    SolveResult
        ``h = Phi* c`` is exactly sparse in the wavelet coefficients, and
        ``x`` is read off the last v-step; ``c``, ``multiplier`` and ``rho``
        are the final ADMM state, ``primal_residual`` and ``dual_residual``
        its residuals, and ``rebuilds`` the number of changes of rho.  The
        error bounds concern ``result.h`` for the relaxed model and ``W x``
        for the strict one.
    """
    if problem.model == "relaxed":
        return solve_relaxed(problem, cfg, trace, warm)
    return solve_strict(problem, cfg, trace, warm)
