"""Splitting solvers for the strict and relaxed co-regularization models.

The relaxed functional

    B(x, h) = ||W x - h||^2/2 + ||A h - y||^2/2 + alpha (||x||^2/2 + ||h||_{1,kappa})

is minimized by Douglas-Rachford splitting on the stacked variable
``z = (x, h)``: the smooth part is the quadratic coupling through the product
operator ``M(x, h) = (W x - h, A h)``, whose prox is a constant-matrix linear
solve, and the penalty part splits into a scaling of ``x`` and a weighted
soft-threshold of ``h``.

The strict functional

    A(x) = ||A W x - y||^2/2 + alpha (||x||^2/2 + ||W x||_{1,kappa})

is minimized by ADMM on the constraint formulation ``W x = h``.

Both models share one :class:`Problem` type, and :func:`solve` dispatches on
its ``model`` field.  Both solvers are deterministic: zero initialization by
default, a seeded random start when :attr:`SolverConfig.seed` is set, and no
data-dependent branching beyond the stopping rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .operators import ProductMap, compose, materialize
from .regularizers import WeightedL1, soft_threshold

__all__ = [
    "Problem",
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "LinearSolveError",
    "objective_relaxed",
    "objective_strict",
    "solve_relaxed",
    "solve_strict",
    "solve",
    "reference_solve",
]

#: Largest single dimension for which inner linear systems use a cached
#: dense Cholesky factor; beyond it conjugate gradients take over.
DENSE_SOLVE_LIMIT = 512

_CG_RTOL = 1e-12
_REFERENCE_MAX_DIM = 256


class SolverError(RuntimeError):
    """A solve produced non-finite values or could not proceed."""


class LinearSolveError(SolverError):
    """An inner linear system could not be solved to tolerance."""


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
    if not alpha > 0:
        raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class Problem:
    """Data of one co-regularized problem: model, operators, noisy data, weight.

    ``model`` is ``"relaxed"`` or ``"strict"``; both models penalize the
    signal by ``||x||^2 / 2`` and its indirect data ``W x`` (or ``h``) by
    the weighted l1 norm ``l1``.
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
    """Iteration limits, step sizes and stopping tolerance.

    ``tol`` is the relative iterate-change threshold for Douglas-Rachford
    and the absolute primal/dual residual threshold for ADMM.  ``seed``
    switches from the deterministic zero start to a seeded random start;
    by convexity the reachable objective value does not depend on it.
    """

    max_iters: int = 20_000
    tol: float = 1e-10
    gamma: float = 1.0
    lambda_relax: float = 1.0
    rho: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not 0.0 < self.lambda_relax < 2.0:
            raise ValueError("lambda_relax must lie in (0, 2)")


@dataclass
class SolveResult:
    """Output of a solve: iterates, objective and convergence diagnostics."""

    x: np.ndarray
    h: np.ndarray
    objective: float
    iterations: int
    fixed_point_residual: float
    converged: bool
    wall_time: float
    diagnostics: dict = field(default_factory=dict)


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
    """Value of the strict functional at ``x``."""
    x = np.asarray(x, dtype=float)
    wx = p.w.apply(x)
    misfit = p.a.apply(wx) - p.y_delta
    penalty = 0.5 * float(x @ x) + p.l1.eval(wx)
    return 0.5 * float(misfit @ misfit) + p.alpha * penalty


class _SpdSolver:
    """Solves ``G z = rhs`` for a fixed SPD ``G``, densely or by CG.

    The dense path factors once (Cholesky) and reuses the factor on every
    call; the CG path applies ``G`` matrix-free and warm-starts from the
    previous solution.
    """

    def __init__(self, dense_matrix=None, matvec=None, dim=None):
        if dense_matrix is not None:
            self._factor = scipy.linalg.cho_factor(dense_matrix)
            self._matvec = None
        else:
            self._factor = None
            self._matvec = matvec
            self._op = spla.LinearOperator((dim, dim), matvec=matvec)
            self._warm = np.zeros(dim)

    def solve(self, rhs):
        if self._factor is not None:
            # cho_factor checked the matrix; Problem refuses non-finite data
            # and the solver loops stop on non-finite iterates
            return scipy.linalg.cho_solve(self._factor, rhs, check_finite=False)
        sol, info = spla.cg(self._op, rhs, x0=self._warm, rtol=_CG_RTOL, atol=0.0)
        if info != 0:
            res = np.linalg.norm(self._matvec(sol) - rhs)
            raise LinearSolveError(
                f"CG failed (info={info}); residual {res:.3e} for rhs norm "
                f"{np.linalg.norm(rhs):.3e}"
            )
        self._warm = sol
        return sol


def _init_vector(dim, seed):
    if seed is None:
        return np.zeros(dim)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.standard_normal(dim)


def _open_trace(trace):
    if trace is None:
        return None, False
    if hasattr(trace, "write"):
        return trace, False
    handle = open(trace, "w", encoding="ascii")
    return handle, True


def _trace_row(handle, it, objective, fpr, primal, dual):
    handle.write(f"{it},{objective!r},{fpr!r},{primal!r},{dual!r}\n")


def _quadratic_prox_solver_relaxed(p, gamma):
    """Prox of ``||M z - b||^2 / 2``: the map ``v -> (I + g M*M)^{-1} (v + g M* b)``."""
    m_op = ProductMap(p.w, p.a)
    dim = m_op.domain_dim
    b = np.concatenate([np.zeros(m_op.dim_h), p.y_delta])
    shift = gamma * m_op.adjoint_apply(b)
    if max(p.w.domain_dim, p.w.codomain_dim, p.a.codomain_dim) <= DENSE_SOLVE_LIMIT:
        mat = materialize(m_op)
        g_mat = np.eye(dim) + gamma * (mat.T @ mat)
        solver = _SpdSolver(dense_matrix=g_mat)
    else:
        def matvec(z):
            return z + gamma * m_op.adjoint_apply(m_op.apply(z))

        solver = _SpdSolver(matvec=matvec, dim=dim)
    return m_op, solver, shift


def solve_relaxed(p, cfg=None, trace=None):
    """Minimize the relaxed functional by Douglas-Rachford splitting.

    One iteration maps the governing sequence ``z`` through

        z <- z + lambda (prox_{g}(2 prox_{f}(z) - z) - prox_{f}(z))

    with ``f`` the quadratic coupling (a cached linear solve) and ``g`` the
    separable penalties (``x -> x / (1 + gamma alpha)``, the prox of the
    quadratic penalty, and a weighted soft-threshold of ``h``).
    The returned iterate is ``prox_f(z)``.  Stops when the relative iterate
    change drops below ``cfg.tol``.

    Parameters
    ----------
    p : Problem
        Must have ``model == "relaxed"``.
    cfg : SolverConfig, optional
    trace : path or file-like, optional
        When given, iteration rows ``iter,objective,fpr,primal_res,dual_res``
        are streamed as CSV (primal/dual are nan for this method).

    Returns
    -------
    SolveResult
        With ``diagnostics['fpr_trace']`` holding the raw iterate-change
        norms (monotone for this splitting).
    """
    _require_model(p, "relaxed")
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    m_op, solver, shift = _quadratic_prox_solver_relaxed(p, cfg.gamma)
    dim_x = m_op.dim_x
    t_pen = cfg.gamma * p.alpha
    kappa_thresholds = t_pen * p.l1.kappa
    basis = p.l1.basis

    def prox_f(v):
        return solver.solve(v + shift)

    def prox_g(v):
        out = np.empty_like(v)
        out[:dim_x] = v[:dim_x] / (1.0 + t_pen)
        c = basis.decompose(v[dim_x:])
        out[dim_x:] = basis.reconstruct(soft_threshold(c, kappa_thresholds))
        return out

    handle, own = _open_trace(trace)
    if handle is not None:
        handle.write("iter,objective,fpr,primal_res,dual_res\n")

    z = _init_vector(m_op.domain_dim, cfg.seed)
    fpr_trace = []
    rel_change = np.inf
    converged = False
    iterations = 0
    try:
        for k in range(1, cfg.max_iters + 1):
            p1 = prox_f(z)
            p2 = prox_g(2.0 * p1 - z)
            z_new = z + cfg.lambda_relax * (p2 - p1)
            if not np.all(np.isfinite(z_new)):
                raise SolverError(f"non-finite iterate at iteration {k}")
            raw = float(np.linalg.norm(z_new - z))
            rel_change = raw / max(1.0, float(np.linalg.norm(z_new)))
            fpr_trace.append(raw)
            z = z_new
            iterations = k
            if handle is not None:
                x_it, h_it = p1[:dim_x], p1[dim_x:]
                _trace_row(
                    handle,
                    k,
                    objective_relaxed(p, x_it, h_it),
                    rel_change,
                    float("nan"),
                    float("nan"),
                )
            if rel_change <= cfg.tol:
                converged = True
                break
    finally:
        if own:
            handle.close()

    z_star = prox_f(z)
    x, h = z_star[:dim_x], z_star[dim_x:]
    return SolveResult(
        x=x,
        h=h,
        objective=objective_relaxed(p, x, h),
        iterations=iterations,
        fixed_point_residual=rel_change,
        converged=converged,
        wall_time=time.perf_counter() - start,
        diagnostics={"fpr_trace": np.asarray(fpr_trace)},
    )


def _x_update_solver_strict(p, alpha, rho):
    """Solver for ``((AW)*(AW) + alpha I + rho W*W) x = rhs``."""
    n = p.w.domain_dim
    if max(n, p.w.codomain_dim, p.a.codomain_dim) <= DENSE_SOLVE_LIMIT:
        w_mat = materialize(p.w)
        aw_mat = materialize(p.a) @ w_mat
        k_mat = aw_mat.T @ aw_mat + alpha * np.eye(n) + rho * (w_mat.T @ w_mat)
        return _SpdSolver(dense_matrix=k_mat)
    aw_op = compose(p.a, p.w)

    def matvec(x):
        return (
            aw_op.adjoint_apply(aw_op.apply(x))
            + alpha * x
            + rho * p.w.adjoint_apply(p.w.apply(x))
        )

    return _SpdSolver(matvec=matvec, dim=n)


def solve_strict(p, cfg=None, trace=None):
    """Minimize the strict functional by ADMM on the split ``W x = h``.

    Updates per iteration: an x-step solving
    ``((AW)*(AW) + alpha I + rho W*W) x = (AW)* y + rho W*(h - u)`` with a
    cached factorization, an h-step soft-thresholding ``W x + u`` at level
    ``alpha/rho`` per weight, and the dual ascent ``u <- u + W x - h``.

    ``p`` must have ``model == "strict"``.  Converged when the primal
    residual ``||W x - h||`` and the dual residual
    ``rho ||W*(h_k - h_{k-1})||`` are both at most ``cfg.tol``.

    Returns
    -------
    SolveResult
        ``h`` is the exactly sparse h-update output; the constraint gap
        ``||W x - h||`` and the final ``W x`` are reported in
        ``diagnostics`` (error bounds for this model concern ``W x``).
    """
    _require_model(p, "strict")
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    solver = _x_update_solver_strict(p, p.alpha, cfg.rho)
    aw = compose(p.a, p.w)
    const_rhs = aw.adjoint_apply(p.y_delta)
    thresholds = (p.alpha / cfg.rho) * p.l1.kappa
    basis = p.l1.basis
    n_h = p.w.codomain_dim

    h = _init_vector(n_h, cfg.seed)
    u = np.zeros(n_h) if cfg.seed is None else _init_vector(n_h, cfg.seed + 1)

    handle, own = _open_trace(trace)
    if handle is not None:
        handle.write("iter,objective,fpr,primal_res,dual_res\n")

    x = np.zeros(p.w.domain_dim)
    wx = p.w.apply(x)
    primal = np.inf
    dual = np.inf
    converged = False
    iterations = 0
    try:
        for k in range(1, cfg.max_iters + 1):
            x = solver.solve(const_rhs + cfg.rho * p.w.adjoint_apply(h - u))
            wx = p.w.apply(x)
            h_prev = h
            c = basis.decompose(wx + u)
            h = basis.reconstruct(soft_threshold(c, thresholds))
            u = u + wx - h
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
                raise SolverError(f"non-finite iterate at iteration {k}")
            primal = float(np.linalg.norm(wx - h))
            dual = cfg.rho * float(np.linalg.norm(p.w.adjoint_apply(h - h_prev)))
            iterations = k
            if handle is not None:
                _trace_row(
                    handle, k, objective_strict(p, x), max(primal, dual), primal, dual
                )
            if primal <= cfg.tol and dual <= cfg.tol:
                converged = True
                break
    finally:
        if own:
            handle.close()

    return SolveResult(
        x=x,
        h=h,
        objective=objective_strict(p, x),
        iterations=iterations,
        fixed_point_residual=max(primal, dual),
        converged=converged,
        wall_time=time.perf_counter() - start,
        diagnostics={
            "primal_residual": primal,
            "dual_residual": dual,
            "constraint_gap": primal,
            "wx": wx,
        },
    )


def solve(problem, cfg=None, trace=None):
    """Minimize ``problem`` with the splitting method of its model.

    Douglas-Rachford (:func:`solve_relaxed`) for the relaxed model, ADMM
    (:func:`solve_strict`) for the strict one.  The error bounds concern
    ``result.h`` for the relaxed model and ``result.diagnostics['wx']`` for
    the strict one.
    """
    if problem.model == "relaxed":
        return solve_relaxed(problem, cfg, trace)
    return solve_strict(problem, cfg, trace)


def reference_solve(problem, cfg=None):
    """High-accuracy oracle: the matching splitting method at tight settings.

    Runs with ``max_iters=500000`` and ``tol=1e-14`` (other parameters taken
    from ``cfg`` when given).  Only intended for small instances; refuses
    dimensions above 256.  Non-convergence is flagged on the result, never
    hidden.
    """
    if not isinstance(problem, Problem):
        raise TypeError(f"unsupported problem type {type(problem).__name__}")
    dims = (
        problem.w.domain_dim,
        problem.w.codomain_dim,
        problem.a.codomain_dim,
    )
    if max(dims) > _REFERENCE_MAX_DIM:
        raise ValueError(
            f"reference_solve is limited to dimensions <= {_REFERENCE_MAX_DIM}, "
            f"got {dims}"
        )
    base = cfg or SolverConfig()
    return solve(problem, replace(base, max_iters=500_000, tol=1e-14))
