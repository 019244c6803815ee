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

The penalty is separable only in the wavelet coefficients ``c = Phi h``, and
``Phi`` is orthonormal, so both loops iterate in coefficient coordinates:
every prox of the penalty is a scaling plus a soft-threshold, and the
coupling step is an affine map built once per solve.  While the side of
its matrix is at most :data:`DENSE_SOLVE_LIMIT` that map is dense (the
inverse of the Douglas-Rachford system; the ADMM x-step folded through ``W``
and ``Phi``), so an iteration costs one or two matvecs and no operator
apply, wavelet transform or linear solve.  Above it the map applies the
operators and the wavelet transform and solves its linear system by
conjugate gradients.

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

#: Largest side of the dense coupling matrix (``dim_x + dim_h`` for the
#: relaxed model, ``max(dim_x, dim_h)`` for the strict one) and of the data
#: dimension for which the coupling step of a solve is built from one
#: Cholesky factorization; beyond it the step is applied matrix-free with
#: conjugate gradients.
DENSE_SOLVE_LIMIT = 1024

#: Columns of ``W* Phi*`` per ``cho_solve`` while the strict coupling matrix
#: is built, so ``K^{-1} W* Phi*`` is never held whole.
_COUPLING_BLOCK = 128
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


def _dense_coupling(p):
    """Whether the coupling step of ``p`` is built as dense matrices."""
    dim_x, dim_h = p.w.domain_dim, p.w.codomain_dim
    side = dim_x + dim_h if p.model == "relaxed" else max(dim_x, dim_h)
    return max(side, p.a.codomain_dim) <= DENSE_SOLVE_LIMIT


class _ConjugateGradient:
    """Solves ``G z = rhs`` for a fixed SPD ``G`` given by its matvec.

    Each solve warm-starts from the previous solution.
    """

    def __init__(self, matvec, dim):
        self._matvec = matvec
        self._op = spla.LinearOperator((dim, dim), matvec=matvec)
        self._warm = np.zeros(dim)

    def solve(self, rhs):
        sol, info = spla.cg(self._op, rhs, x0=self._warm, rtol=_CG_RTOL, atol=0.0)
        if info != 0:
            res = np.linalg.norm(self._matvec(sol) - rhs)
            raise LinearSolveError(
                f"CG failed (info={info}); residual {res:.3e} for rhs norm "
                f"{np.linalg.norm(rhs):.3e}"
            )
        self._warm = sol
        return sol


def _cho_factor_in_place(mat):
    """Cholesky factor of the C-ordered symmetric positive definite ``mat``.

    The factor overwrites ``mat``: the transposed view is Fortran-ordered, so
    LAPACK factors it in place, and by symmetry it is the same matrix.  The
    caller should drop its own name for ``mat``.
    """
    return scipy.linalg.cho_factor(mat.T, overwrite_a=True)


def _spd_inverse(mat):
    """Inverse of the symmetric positive definite ``mat``, formed in its storage."""
    factor, lower = _cho_factor_in_place(mat)
    # dpotri inverts the Fortran-ordered factor in place too
    inv, info = scipy.linalg.lapack.dpotri(factor, lower=lower, overwrite_c=1)
    if info != 0:
        raise LinearSolveError(f"Cholesky inverse failed (info={info})")
    # dpotri fills the upper triangle; mirror it one contiguous column of
    # the Fortran view (a row of the storage) at a time
    for i in range(inv.shape[0] - 1):
        inv[i + 1 :, i] = inv[i, i + 1 :]
    return inv.T


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


def _coupling_relaxed(p, gamma):
    """Prox of ``gamma ||M z - b||^2 / 2`` in coefficient coordinates.

    With ``z^ = (x, Phi h)`` and ``M^ = M diag(I, Phi*)`` the prox is the
    affine map ``z^ -> (I + gamma M^* M^)^{-1} (z^ + gamma M^* b)``: one
    matvec with the inverse, formed once, on the dense path; a CG solve in
    signal coordinates otherwise.
    """
    m_op = ProductMap(p.w, p.a)
    basis = p.l1.basis
    dim_x = m_op.dim_x
    b = np.concatenate([np.zeros(m_op.dim_h), p.y_delta])
    if _dense_coupling(p):
        mat = materialize(m_op)
        mat[:, dim_x:] = basis.decompose(mat[:, dim_x:].T).T
        gram = mat.T @ mat
        gram *= gamma
        gram.flat[:: gram.shape[0] + 1] += 1.0
        g_inv = _spd_inverse(gram)
        p_shift = g_inv @ (gamma * (mat.T @ b))
        return lambda z: g_inv @ z + p_shift

    shift = gamma * m_op.adjoint_apply(b)
    cg = _ConjugateGradient(
        lambda z: z + gamma * m_op.adjoint_apply(m_op.apply(z)), m_op.domain_dim
    )

    def prox_f(z):
        sol = cg.solve(
            np.concatenate([z[:dim_x], basis.reconstruct(z[dim_x:])]) + shift
        )
        return np.concatenate([sol[:dim_x], basis.decompose(sol[dim_x:])])

    return prox_f


def solve_relaxed(p, cfg=None, trace=None):
    """Minimize the relaxed functional by Douglas-Rachford splitting.

    One iteration maps the governing sequence ``z^ = (x, Phi h)``, kept in
    wavelet coefficients, through

        z^ <- z^ + lambda (prox_{g}(2 prox_{f}(z^) - z^) - prox_{f}(z^))

    with ``f`` the quadratic coupling, whose prox is an affine map built once
    per solve, and ``g`` the separable penalties (``x -> x / (1 + gamma
    alpha)``, the prox of the quadratic penalty, and a weighted
    soft-threshold of the coefficients).  The returned iterate is
    ``prox_f(z^)`` mapped back to ``(x, h)``.  Stops when the relative
    iterate change drops below ``cfg.tol``.

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
    prox_f = _coupling_relaxed(p, cfg.gamma)
    basis = p.l1.basis
    dim_x = p.w.domain_dim
    t_pen = cfg.gamma * p.alpha
    kappa_thresholds = t_pen * p.l1.kappa

    def prox_g(v):
        out = np.empty_like(v)
        out[:dim_x] = v[:dim_x] / (1.0 + t_pen)
        out[dim_x:] = soft_threshold(v[dim_x:], kappa_thresholds)
        return out

    def signal(v):
        return v[:dim_x], basis.reconstruct(v[dim_x:])

    handle, own = _open_trace(trace)
    if handle is not None:
        handle.write("iter,objective,fpr,primal_res,dual_res\n")

    z = _init_vector(dim_x + p.w.codomain_dim, cfg.seed)
    z[dim_x:] = basis.decompose(z[dim_x:])
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
                _trace_row(
                    handle,
                    k,
                    objective_relaxed(p, *signal(p1)),
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

    x, h = signal(prox_f(z))
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


def _coupling_strict(p, rho):
    """The ADMM x-step seen from coefficient space.

    For ``d = Phi (h - u)`` the x-step solves
    ``K x = (AW)* y + rho R d`` with
    ``K = (AW)*(AW) + alpha I + rho W*W`` and ``R = W* Phi*``.  Returns three
    maps: ``x_of(d)``, that ``x``; ``wx_of(d) = Phi W x_of(d)``; and
    ``r_of(v) = R v``, for the dual residual.

    On the dense path ``wx_of`` is one matvec with
    ``Q = Phi W rho K^{-1} R``, and ``r_of`` one with ``R``, the transposed
    view of ``Phi W``; ``x_of`` solves with the Cholesky factor of ``K`` and
    runs only after the loop or for a trace row.  The build keeps at most
    four n-by-n arrays alive: ``K`` is summed through one temporary and
    factored in its own storage, and ``Q`` is filled in column blocks of
    :data:`_COUPLING_BLOCK`, so ``K^{-1} R`` is never held whole.  Afterwards
    the factor, ``Phi W`` and ``Q`` remain.  Otherwise the maps apply the
    operators and solve by CG.
    """
    basis = p.l1.basis
    const_rhs = compose(p.a, p.w).adjoint_apply(p.y_delta)
    if _dense_coupling(p):
        w_mat = materialize(p.w)
        aw_mat = materialize(p.a) @ w_mat
        k_mat = aw_mat.T @ aw_mat
        del aw_mat
        tmp = w_mat.T @ w_mat
        tmp *= rho
        k_mat += tmp
        del tmp
        k_mat.flat[:: k_mat.shape[0] + 1] += p.alpha
        factor = _cho_factor_in_place(k_mat)
        del k_mat
        phi_w = basis.decompose(w_mat)
        del w_mat
        r_mat = phi_w.T
        q_mat = np.empty((phi_w.shape[0], phi_w.shape[0]))
        for j in range(0, q_mat.shape[1], _COUPLING_BLOCK):
            cols = slice(j, j + _COUPLING_BLOCK)
            blk = scipy.linalg.cho_solve(factor, r_mat[:, cols], check_finite=False)
            blk *= rho
            q_mat[:, cols] = phi_w @ blk
        wx0 = phi_w @ scipy.linalg.cho_solve(factor, const_rhs, check_finite=False)
        return (
            lambda d: scipy.linalg.cho_solve(
                factor, const_rhs + rho * (r_mat @ d), check_finite=False
            ),
            lambda d: wx0 + q_mat @ d,
            lambda v: r_mat @ v,
        )

    aw = compose(p.a, p.w)
    cg = _ConjugateGradient(
        lambda x: aw.adjoint_apply(aw.apply(x))
        + p.alpha * x
        + rho * p.w.adjoint_apply(p.w.apply(x)),
        p.w.domain_dim,
    )

    def r_of(v):
        return p.w.adjoint_apply(basis.reconstruct(v))

    def x_of(d):
        return cg.solve(const_rhs + rho * r_of(d))

    return x_of, lambda d: basis.decompose(p.w.apply(x_of(d))), r_of


def solve_strict(p, cfg=None, trace=None):
    """Minimize the strict functional by ADMM on the split ``W x = h``.

    The iterates are kept in wavelet coefficients: ``h^ = Phi h``,
    ``u^ = Phi u`` and ``w^ = Phi W x``.  Updates per iteration: the x-step
    solving ``((AW)*(AW) + alpha I + rho W*W) x = (AW)* y + rho W*(h - u)``,
    which enters only through the affine map ``h^ - u^ -> w^`` built once
    per solve; an h-step soft-thresholding ``w^ + u^`` at level
    ``alpha/rho`` per weight; and the dual ascent ``u^ <- u^ + w^ - h^``.
    ``x`` itself is formed once, after the loop.

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
    x_of, wx_of, r_of = _coupling_strict(p, cfg.rho)
    thresholds = (p.alpha / cfg.rho) * p.l1.kappa
    basis = p.l1.basis
    n_h = p.w.codomain_dim

    h_hat = basis.decompose(_init_vector(n_h, cfg.seed))
    u_hat = (
        np.zeros(n_h)
        if cfg.seed is None
        else basis.decompose(_init_vector(n_h, cfg.seed + 1))
    )

    handle, own = _open_trace(trace)
    if handle is not None:
        handle.write("iter,objective,fpr,primal_res,dual_res\n")

    primal = np.inf
    dual = np.inf
    converged = False
    iterations = 0
    try:
        for k in range(1, cfg.max_iters + 1):
            d = h_hat - u_hat
            wx_hat = wx_of(d)
            h_prev = h_hat
            h_hat = soft_threshold(wx_hat + u_hat, thresholds)
            u_hat = u_hat + wx_hat - h_hat
            if not (np.all(np.isfinite(wx_hat)) and np.all(np.isfinite(h_hat))):
                raise SolverError(f"non-finite iterate at iteration {k}")
            primal = float(np.linalg.norm(wx_hat - h_hat))
            dual = cfg.rho * float(np.linalg.norm(r_of(h_hat - h_prev)))
            iterations = k
            if handle is not None:
                _trace_row(
                    handle,
                    k,
                    objective_strict(p, x_of(d)),
                    max(primal, dual),
                    primal,
                    dual,
                )
            if primal <= cfg.tol and dual <= cfg.tol:
                converged = True
                break
    finally:
        if own:
            handle.close()

    x = x_of(d)
    return SolveResult(
        x=x,
        h=basis.reconstruct(h_hat),
        objective=objective_strict(p, x),
        iterations=iterations,
        fixed_point_residual=max(primal, dual),
        converged=converged,
        wall_time=time.perf_counter() - start,
        diagnostics={
            "primal_residual": primal,
            "dual_residual": dual,
            "constraint_gap": primal,
            "wx": p.w.apply(x),
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
