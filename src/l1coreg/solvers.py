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
solve by whitening with the Cholesky factors of ``G`` and ``S``, so an
iteration costs one matvec and no operator apply, wavelet transform or
linear solve.  The dual residual of the stopping rule,
``rho ||c_k - c_{k-1}||`` for both models, can stop the loop only together
with the primal one, so it is computed only on iterations whose primal
residual is within ``tol``, or on every iteration when tracing.

Each factor is used once, to apply its inverse to a fixed right-hand side,
so none is kept: :func:`_whiten` does the forward substitution inside a
blocked factorization.  LAPACK sees only diagonal blocks of
:data:`_FACTOR_BLOCK` rows, and everything wider is a matrix product.
Threaded LAPACK factorizations round differently under different BLAS
thread counts from about side 128 on, while products, and LAPACK calls this
narrow, give the same bits; so solve outputs do not depend on the BLAS
thread count.  The build materializes ``W`` and ``A`` within the budget of
:func:`~l1coreg.operators.materialize` and raises
:class:`~l1coreg.operators.MaterializeBudgetError` beyond it.

Both models share one :class:`Problem` type.  The loop is deterministic:
it starts from ``c = u = 0``, or from the final ``(c, rho u)`` of an earlier
:class:`SolveResult` passed as ``warm``, and branches on the data only in the
stopping rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .operators import materialize
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


class SolverError(RuntimeError):
    """A solve produced non-finite values or could not proceed."""


def _check_problem_dims(w, a, y_delta, alpha, l1):
    if w.codomain_dim != a.domain_dim:
        raise ValueError(
            f"W maps into R^{w.codomain_dim} but A expects R^{a.domain_dim}"
        )
    if l1.basis.n != w.codomain_dim:
        raise ValueError(
            f"l1 basis size {l1.basis.n} != intermediate dimension {w.codomain_dim}"
        )
    if y_delta.shape != (a.codomain_dim,):
        raise ValueError(
            f"data length {y_delta.shape} != measurement dimension {a.codomain_dim}"
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
    """Iteration limit, stopping tolerance and ADMM penalty.

    ``tol`` bounds both the absolute primal residual ``||Phi h - c||`` and
    the absolute dual residual ``rho ||c_k - c_{k-1}||`` of either model.
    ``rho`` is the ADMM penalty of both models.
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

    ``c`` and ``multiplier`` are the final ADMM state: the exactly sparse
    coefficients with ``h = Phi* c``, and the unscaled multiplier
    ``rho u`` of the split ``Phi h = c``, whose optimal value does not
    depend on ``rho``.  Passing the result as ``warm`` to :func:`solve`
    restarts ADMM there.  ``primal_residual`` (``||Phi h - c||``) and
    ``dual_residual`` (``rho ||c_k - c_{k-1}||``) are the last iteration's.
    """

    x: np.ndarray
    h: np.ndarray
    c: np.ndarray
    multiplier: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
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
    coupling = p.w.apply(x) - h
    misfit = p.a.apply(h) - p.y_delta
    return (
        0.5 * float(coupling @ coupling)
        + 0.5 * float(misfit @ misfit)
        + p.alpha * (0.5 * float(x @ x) + p.l1.eval(h))
    )


def objective_strict(p, x):
    """Value of the strict functional at ``x``: the relaxed one at ``h = W x``."""
    return objective_relaxed(p, x, p.w.apply(x))


def _whiten(mat, rhs):
    """``L^{-1} rhs`` for the Cholesky factor ``L`` of the positive definite ``mat``.

    A right-looking blocked factorization that carries the forward
    substitution along: each diagonal block of :data:`_FACTOR_BLOCK` rows is
    factored by ``np.linalg.cholesky`` and inverted, which finishes that
    block's rows of the result, and the trailing matrix and the trailing rows
    of the result are each updated by one product.  ``rhs`` is a vector or a
    matrix and is not changed; ``mat`` is overwritten, and no factor is kept.
    Raises ``np.linalg.LinAlgError`` when ``mat`` is not positive definite.
    """
    n = mat.shape[0]
    out = np.array(rhs, dtype=float, order="C")
    for j in range(0, n, _FACTOR_BLOCK):
        k = min(j + _FACTOR_BLOCK, n)
        inv11 = np.tril(np.linalg.inv(np.linalg.cholesky(mat[j:k, j:k])))
        out[j:k] = inv11 @ out[j:k]
        if k < n:
            panel = mat[k:, j:k] @ inv11.T
            mat[k:, k:] -= panel @ panel.T
            out[k:] -= panel @ out[j:k]
    return out


def _open_trace(trace):
    if trace is None:
        return None, False
    if hasattr(trace, "write"):
        return trace, False
    handle = open(trace, "w", encoding="ascii")
    return handle, True


def _trace_row(handle, it, objective, fpr, primal, dual):
    handle.write(f"{it},{objective!r},{fpr!r},{primal!r},{dual!r}\n")


def _coupling(p, rho):
    """The v-step ``S h = A* y + rho Phi* d`` of either model, as two maps.

    With ``L_G`` and ``L_S`` the Cholesky factors of ``G`` and ``S``, the
    build keeps ``g_white = L_G^{-1}``, so ``alpha G^{-1}`` is
    ``alpha g_white* g_white``, and whitens ``Phi*`` by ``S`` into
    ``M = L_S^{-1} Phi*``.  ``fv_of(d) = Phi h = c0 + Q d`` is one matvec
    with the dense ``Q = rho M* M = rho Phi S^{-1} Phi*``, the one matvec of
    every iteration; ``Phi* Phi = I`` gives ``c0 = M* M Phi A* y``.
    ``x_of(d) = W* G^{-1} h`` is two triangular matvecs with ``g_white`` and
    runs only after the loop or for a trace row.  ``W``, ``S`` and ``M`` are
    dropped once used, so the build keeps at most four n-by-n arrays alive
    besides the basis's ``Phi``.
    Raises ``ValueError`` when the strict ``G = W W*`` does not factor.
    """
    phi = p.l1.basis.matrix
    w_mat = materialize(p.w)
    g_mat = w_mat @ w_mat.T
    del w_mat
    n = g_mat.shape[0]
    if p.model == "relaxed":
        g_mat.flat[:: n + 1] += p.alpha
    try:
        g_white = _whiten(g_mat, np.eye(n))
    except np.linalg.LinAlgError:
        raise ValueError(
            "the strict model needs W of full row rank (W W* must factor)"
        ) from None
    del g_mat
    s_mat = g_white.T @ g_white
    s_mat *= p.alpha
    a_mat = materialize(p.a)
    s_mat += a_mat.T @ a_mat
    del a_mat
    s_mat.flat[:: n + 1] += rho
    m_mat = _whiten(s_mat, phi.T)
    del s_mat
    q_mat = m_mat.T @ m_mat
    del m_mat
    c0 = q_mat @ (phi @ p.a.adjoint_apply(p.y_delta))
    q_mat *= rho

    def fv_of(d):
        return c0 + q_mat @ d

    def x_of(d):
        return p.w.adjoint_apply(g_white.T @ (g_white @ (phi.T @ fv_of(d))))

    return x_of, fv_of


def _start(warm, n, rho):
    """The ADMM start ``(c, u)``: zero, or the final state of ``warm``."""
    if warm is None:
        return np.zeros(n), np.zeros(n)
    c = np.array(warm.c, dtype=float)
    u = np.array(warm.multiplier, dtype=float) / rho
    if c.shape != (n,) or u.shape != (n,):
        raise ValueError(
            f"warm start has shapes {c.shape} and {u.shape}, expected ({n},)"
        )
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(u))):
        raise ValueError("warm start must be finite")
    return c, u


def _admm(p, cfg, trace, warm):
    """Scaled ADMM on the split ``Phi h = c`` of either model.

    Per iteration: the v-step, which enters only through ``Phi h``, the
    affine map of :func:`_coupling`; a c-step soft-thresholding
    ``Phi h + u`` at level ``alpha/rho`` per weight; and the dual ascent
    ``u <- u + Phi h - c``.  ``x`` itself is formed after the loop and for
    trace rows only.  The dual residual ``rho ||c_k - c_{k-1}||`` is
    computed only when the primal one is within ``tol``, since it cannot
    stop the loop otherwise, or when a trace row prints it; a solve that
    reaches ``max_iters`` computes it for the last iteration after the loop,
    so traced and untraced solves return the same bits.
    """
    start = time.perf_counter()
    c, u = _start(warm, p.w.codomain_dim, cfg.rho)
    x_of, fv_of = _coupling(p, cfg.rho)
    thresholds = (p.alpha / cfg.rho) * p.l1.kappa
    basis = p.l1.basis

    def objective(x, c):
        if p.model == "strict":
            return objective_strict(p, x)
        return objective_relaxed(p, x, basis.reconstruct(c))

    def dual_residual(dc):
        return cfg.rho * math.sqrt(dc.dot(dc))

    handle, own = _open_trace(trace)
    if handle is not None:
        handle.write("iter,objective,fpr,primal_res,dual_res\n")

    primal = np.inf
    dual = np.inf
    converged = False
    iterations = 0
    try:
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
            if primal > cfg.tol and handle is None:
                continue
            dual = dual_residual(c - c_prev)
            if handle is not None:
                _trace_row(
                    handle,
                    k,
                    objective(x_of(d), c),
                    max(primal, dual),
                    primal,
                    dual,
                )
            if primal <= cfg.tol and dual <= cfg.tol:
                converged = True
                break
        else:
            # max_iters reached: the last dual residual may not have been needed
            dual = dual_residual(c - c_prev)
    finally:
        if own:
            handle.close()

    x = x_of(d)
    return SolveResult(
        x=x,
        h=basis.reconstruct(c),
        c=c,
        multiplier=cfg.rho * u,
        objective=objective(x, c),
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
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
    on iterations whose primal residual is within ``cfg.tol``, or on every
    iteration when ``trace`` is given.  A strict ``problem`` whose ``W`` is
    not of full row rank raises ``ValueError``.  ADMM starts from
    ``c = u = 0``, or from the final state of ``warm``; a solve restarted
    from its own converged result stops within an iteration or two.

    Parameters
    ----------
    problem : Problem
    cfg : SolverConfig, optional
    trace : path or file-like, optional
        When given, iteration rows ``iter,objective,fpr,primal_res,dual_res``
        are streamed as CSV; ``fpr`` is the larger of the two residuals.
    warm : SolveResult, optional
        Start from ``c = warm.c`` and ``u = warm.multiplier / cfg.rho``,
        typically the result of a nearby problem of the same size.  Raises
        ``ValueError`` when that state has the wrong length or is not
        finite.

    Returns
    -------
    SolveResult
        ``h = Phi* c`` is exactly sparse in the wavelet coefficients, and
        ``x`` is read off the last v-step; ``c`` and ``multiplier`` are the
        final ADMM state, and ``primal_residual`` and ``dual_residual`` its
        residuals.  The error bounds concern ``result.h`` for the relaxed
        model and ``W x`` for the strict one.
    """
    if problem.model == "relaxed":
        return solve_relaxed(problem, cfg, trace, warm)
    return solve_strict(problem, cfg, trace, warm)
