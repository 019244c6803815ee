"""ADMM and an active-set finish for the strict and relaxed co-regularization models.

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
``Q = rho Phi S^{-1} Phi*``.  That map is built once per value of rho in
the left singular basis ``U`` of ``W``, where ``G^{-1}`` is diagonal, by
one recipe for every ``W``: Woodbury leaves one m-by-m matrix ``K``, a
product of a matrix with its own transpose, and whitening against its
factor gives one m-by-n factor ``P`` and the offset ``c0``.  Only the
apply step forks.  When ``W W*`` is a multiple of the identity, ``Q`` is
``P`` multiplied out into a dense matrix and an iteration costs one
n-by-n matvec; otherwise ``Q`` stays in its factors, ``Phi U`` and ``P``,
and an iteration costs two n-by-n and two m-by-n matvecs, with no n-by-n
matrix formed per rho.  ``U``, ``Phi U`` and ``A U`` depend on the instance
alone, and a sweep forms them once for all of its records.  No iteration
applies an operator, a wavelet transform or a linear solve.  The
dual residual of the stopping rule,
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

The factor of ``K`` is used once and not kept: :func:`_whiten` does the
forward substitution inside a blocked factorization, so LAPACK sees only
diagonal blocks of :data:`_FACTOR_BLOCK` rows.  Threaded LAPACK
factorizations round differently under different BLAS thread counts from
about side 128 on, while products, and LAPACK calls this narrow, give the
same bits; so solve outputs do not depend on the BLAS thread count, except
for a ``W`` other than the identity and the integration matrix, whose ``U``
comes from one ``np.linalg.eigh``.  The build reads the matrices ``W`` and
``A`` hold, which their builders kept within
:data:`~l1coreg.operators.DEFAULT_MATERIALIZE_BUDGET`.

Both models share one :class:`Problem` type, and a :class:`SolveResult`
carries each model's estimate ``h`` of ``h* = W x*``: ``Phi* c`` relaxed,
``W x`` strict.  The loop is deterministic:
it starts from ``c = u = 0`` at ``cfg.rho``, or from the final state
``(c, rho u, rho)`` of an earlier :class:`SolveResult` passed as ``warm``,
and branches on the data only in the stopping rule and the balancing of
rho.

A warm solve first tries to finish without ADMM.  In ``c = Phi h`` both
models are ``min c*Hc/2 - b*c + alpha sum kappa |c|`` with ``b = T B* y``
and ``H = T (B* B + alpha diag g) T*``, read off the same ``T = Phi U``,
``B = A U`` and ``G^{-1} = U diag(g) U*`` as the v-step, so no n-by-n
matrix beyond ``T`` is formed.  Primal-dual active-set steps
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002; Fan, Jiao & Lu,
IEEE Trans. Signal Process. 62, 2014) start from the support and signs of
``warm.c``; each solves ``H_SS c_S = b_S - alpha kappa_S sigma_S`` on the
active set ``S``, at most :data:`_FACTOR_BLOCK` wide, and the steps stop
when the set and signs repeat.  Their point is returned only when
:func:`kkt_residual` verifies it to :data:`_KKT_TOL`; on a wider set, a
cycle, :data:`_MAX_ACTIVE_SET_STEPS` steps or a failed check, ADMM runs
from ``warm`` as it would without the steps.  Cold solves take no steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .operators import _spectrum
from .regularizers import WeightedL1, soft_threshold

__all__ = [
    "Problem",
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "objective_relaxed",
    "kkt_residual",
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

#: Most primal-dual active-set steps a warm solve tries before ADMM, and the
#: largest :func:`kkt_residual` of a point they may return.
_MAX_ACTIVE_SET_STEPS = 20
_KKT_TOL = 1e-12


class SolverError(RuntimeError):
    """A solve produced non-finite values or could not proceed."""


def _check_l1_size(w, l1):
    if l1.basis.n != w.matrix.shape[0]:
        raise ValueError(f"l1 basis size {l1.basis.n} != intermediate "
                         f"dimension {w.matrix.shape[0]}")


def _check_problem_dims(w, a, y_delta, alpha, l1):
    w_rows = w.matrix.shape[0]
    a_rows, a_cols = a.matrix.shape
    if w_rows != a_cols:
        raise ValueError(
            f"W maps into R^{w_rows} but A expects R^{a_cols}"
        )
    _check_l1_size(w, l1)
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
    _spectral: tuple = field(default=None, compare=False, repr=False)

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
    """Output of a solve: estimates, objective and the final ADMM residuals.

    ``h`` is the model's estimate of ``h* = W x*``, the one the error bounds
    concern: ``Phi* c`` for the relaxed model and ``W x`` for the strict
    one.  ``objective`` is the functional at ``(x, h)``.  ``c``,
    ``multiplier`` and ``rho`` are the final ADMM state: the exactly sparse
    coefficients of the split ``Phi h = c``, its unscaled multiplier
    ``rho u``, whose optimal value does not depend on ``rho``, and the
    penalty the loop ended with.  Passing the
    result as ``warm`` to :func:`solve` restarts there.
    ``primal_residual`` (``||Phi h - c||``) and ``dual_residual``
    (``rho ||c_k - c_{k-1}||``) are the last iteration's; ``rebuilds``
    counts the changes of rho, each a new coupling.

    A result the active-set finish returned has ``active_set_steps > 0``,
    an exactly sparse minimizer ``c`` with ``h`` and ``x`` formed from it,
    ``iterations``, ``rebuilds`` and both residuals 0 (there is no ADMM
    step, and ``h`` is formed from ``c``), the ``rho`` of its warm start,
    and as ``multiplier`` the exact dual ``b - H c`` (see
    :func:`kkt_residual`), so a later warm start resumes from a
    primal-dual pair.
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
    active_set_steps: int
    converged: bool
    wall_time: float

    @property
    def fixed_point_residual(self):
        """The larger of the two final residuals."""
        return max(self.primal_residual, self.dual_residual)


def objective_relaxed(p, x, h):
    """The relaxed functional at ``(x, h)``, and the strict one at ``h = W x``."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    coupling = p.w.matrix @ x - h
    misfit = p.a.matrix @ h - p.y_delta
    return (
        0.5 * float(coupling @ coupling)
        + 0.5 * float(misfit @ misfit)
        + p.alpha * (0.5 * float(x @ x) + p.l1.eval(h))
    )


def _whiten(mat, rhs):
    """``L^{-1} rhs`` for the Cholesky factor ``L`` of the positive definite ``mat``.

    A right-looking blocked factorization that carries the forward
    substitution along: each diagonal block of :data:`_FACTOR_BLOCK` rows is
    factored by ``np.linalg.cholesky`` and inverted, which finishes that
    block's rows of the result; then the trailing matrix, in its block
    columns on and below the diagonal only (the later blocks read nothing
    else), and the trailing rows of the result are updated one block at a
    time, so no temporary is wider than a block.  ``rhs`` is a vector or a
    matrix and is not changed.  ``mat`` is overwritten, and no factor is
    kept.  Raises ``np.linalg.LinAlgError`` when ``mat`` is not positive
    definite.
    """
    n = mat.shape[0]
    out = np.array(rhs, dtype=float, order="C")
    for j in range(0, n, _FACTOR_BLOCK):
        k = min(j + _FACTOR_BLOCK, n)
        inv11 = np.tril(np.linalg.inv(np.linalg.cholesky(mat[j:k, j:k])))
        out[j:k] = inv11 @ out[j:k]
        panel = mat[k:, j:k] @ inv11.T
        for i in range(k, n, _FACTOR_BLOCK):
            e = min(i + _FACTOR_BLOCK, n)
            mat[i:, i:e] -= panel[i - k:] @ panel[i - k:e - k].T
            out[i:e] -= panel[i - k:e - k] @ out[j:k]
    return out


def _trace_row(trace, it, objective, fpr, primal, dual, rho):
    trace.write(f"{it},{objective!r},{fpr!r},{primal!r},{dual!r},{rho!r}\n")


def _singular_basis(w, a, basis):
    """``(Phi U, A U, lam)`` of one instance, with ``W W* = U diag(lam) U*``.

    ``U`` and ``lam`` come from :func:`~l1coreg.operators._spectrum`;
    ``Phi U`` and ``A U`` are ``Phi`` and ``A`` when ``W`` is the identity.
    No model or alpha enters: a sweep forms it once and hands it to every
    solve in :class:`Problem`'s private last field, else the solve forms it.
    """
    u, lam = _spectrum(w)
    if u is None:
        return basis.matrix, a.matrix, lam
    return basis.matrix @ u, a.matrix @ u, lam


def _coupling(p, rho, t, a_u, g):
    """The v-step ``S h = A* y + rho Phi* d`` of either model, as two maps.

    ``fv_of(d) = Phi h = c0 + Q d`` is the map every iteration applies, with
    ``Q = rho Phi S^{-1} Phi*``; ``x_of(d) = W* G^{-1} h`` runs only after
    the loop or for a trace row.  ``t`` and ``a_u`` are the instance's
    ``T = Phi U`` and ``B = A U`` (:func:`_singular_basis`), and ``g`` the
    solve's ``G^{-1} = U diag(g) U*``, ``g = 1/(lam + eps)``.  In the basis
    ``U``, ``S = U (B* B + E) U*`` with the diagonal ``E = rho + alpha g``.  One build serves every ``W``:
    with ``S_E = B E^{-1/2}``, Woodbury gives
    ``Q = rho T (E^{-1} - P* P) T*`` with ``P = L_K^{-1} S_E E^{-1/2}``,
    m-by-n, for the Cholesky factor ``L_K`` of the m-by-m
    ``K = I + S_E S_E*``, a matrix times its own transpose.  With
    ``in_u(z) = E^{-1} z - P* P z``, ``c0 = T in_u(B* y)``, since
    ``T* Phi A* y = B* y``.  The only fork is how ``Q`` is applied.  ``T``
    is orthogonal, so a constant ``E`` (identity ``W``, or any ``W`` with a
    flat spectrum) makes ``Q = rho (I/E - R* R)`` with ``R = P T*``: ``P``
    multiplied out, formed once, and an iteration costs one n-by-n matvec.
    Otherwise no n-by-n matrix is formed, and an iteration applies ``T*``,
    ``P``, ``P*`` and ``T``.  ``x_of`` uses ``Phi* T = U`` to form
    ``W* Phi* T (g (T* Phi h))`` without ``U``.
    """
    e_inv = 1.0 / (rho + p.alpha * g)
    e_half = np.sqrt(e_inv)
    s_mat = a_u * e_half
    k_mat = s_mat @ s_mat.T
    k_mat.flat[:: len(k_mat) + 1] += 1.0
    p_mat = _whiten(k_mat, s_mat)
    del k_mat, s_mat
    p_mat *= e_half

    def in_u(z):
        return e_inv * z - p_mat.T @ (p_mat @ z)

    c0 = t @ in_u(a_u.T @ p.y_delta)
    if np.all(e_inv == e_inv[0]):
        r_mat = p_mat @ t.T
        del p_mat, in_u  # dropped first: the build peaks holding only R and Q
        q_mat = r_mat.T @ r_mat
        del r_mat
        q_mat *= -rho
        q_mat.flat[:: len(q_mat) + 1] += rho * e_inv[0]

        def fv_of(d):
            return c0 + q_mat @ d
    else:

        def fv_of(d):
            return c0 + rho * (t @ in_u(t.T @ d))

    def x_of(d):
        return _preimage(p, t, g, fv_of(d))

    return x_of, fv_of


def _preimage(p, t, g, fv):
    """``x = W* G^{-1} h`` from ``fv = Phi h``, using ``Phi* T = U``."""
    return p.w.matrix.T @ (p.l1.basis.matrix.T @ (t @ (g * (t.T @ fv))))


def _reduced(p):
    """``(T, A U, g)`` of ``p``: its :func:`_singular_basis` and ``G^{-1} = U diag(g) U*``.

    Raises ``ValueError`` for a strict ``p`` whose ``W`` is not of full row
    rank.
    """
    t, a_u, lam = p._spectral or _singular_basis(p.w, p.a, p.l1.basis)
    if p.model == "relaxed":
        return t, a_u, 1.0 / (lam + p.alpha)
    if lam.min() <= len(lam) * np.finfo(float).eps * lam.max():
        raise ValueError(
            "the strict model needs W of full row rank (W W* must factor)"
        )
    return t, a_u, 1.0 / lam


def _hess(p, t, a_u, g, c):
    """``H c`` for ``H = T (B* B + alpha diag g) T*``, the Hessian in ``c = Phi h``."""
    z = t.T @ c
    return t @ (a_u.T @ (a_u @ z) + p.alpha * (g * z))


def kkt_residual(problem, result):
    """Relative KKT residual of ``result.c``; 0 exactly at the minimizer.

    Eliminating ``x`` leaves, for both models, ``min c*Hc/2 - b*c + alpha
    sum kappa |c|`` in ``c = Phi h``, with ``b = T B* y`` and ``H = T (B* B
    + alpha diag g) T*`` (``T = Phi U``, ``B = A U``, ``G^{-1} = U diag(g)
    U*``).  With ``r = b - H c`` it takes ``|r_l - alpha kappa_l sign c_l|``
    where ``c_l != 0`` and ``max(|r_l| - alpha kappa_l, 0)`` elsewhere, and
    returns their maximum over ``||b||_inf``, the smallest alpha at which
    ``c = 0`` is optimal.  No n-by-n matrix beyond ``T`` is formed.
    """
    t, a_u, g = _reduced(problem)
    c = np.asarray(result.c, dtype=float)
    b = t @ (a_u.T @ problem.y_delta)
    r = b - _hess(problem, t, a_u, g, c)
    level = problem.alpha * problem.l1.kappa
    gap = np.where(c != 0.0, np.abs(r - level * np.sign(c)),
                   np.maximum(np.abs(r) - level, 0.0))
    return float(gap.max()) / max(float(np.abs(b).max()), np.finfo(float).tiny)


def _active_set(p, t, a_u, g, c):
    """Primal-dual active-set steps from the support and signs of ``c``.

    Each step solves ``H_SS c_S = b_S - alpha kappa_S sigma_S`` on the
    active set ``S`` with signs ``sigma`` and sets ``c = 0`` off ``S``; with
    ``r = b - H c`` the next set is ``{l : |c_l + r_l| > alpha kappa_l}``
    with the signs of ``c + r`` (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 13, 2002).  The steps stop when the set and signs repeat, and
    return ``(c, r, steps)`` when ``sign(c_S) = sigma``; the caller still
    checks :func:`kkt_residual`.  They return None when the signs differ,
    on a set wider than :data:`_FACTOR_BLOCK` (so LAPACK sees only narrow
    systems), on an earlier set coming back, and after
    :data:`_MAX_ACTIVE_SET_STEPS` steps.
    """
    b = t @ (a_u.T @ p.y_delta)
    level = p.alpha * p.l1.kappa
    on = np.flatnonzero(c)
    sigma = np.sign(c[on])
    seen = set()
    for steps in range(1, _MAX_ACTIVE_SET_STEPS + 1):
        if len(on) > _FACTOR_BLOCK:
            return None
        seen.add((on.tobytes(), sigma.tobytes()))
        t_s = t[on]
        r_s = a_u @ t_s.T
        hess = r_s.T @ r_s + (t_s * (p.alpha * g)) @ t_s.T
        c = np.zeros(len(b))
        c[on] = np.linalg.solve(hess, b[on] - level[on] * sigma)
        r = b - _hess(p, t, a_u, g, c)
        v = c + r
        nxt = np.flatnonzero(np.abs(v) > level)
        nxt_sigma = np.sign(v[nxt])
        if np.array_equal(nxt, on) and np.array_equal(nxt_sigma, sigma):
            return (c, r, steps) if np.array_equal(np.sign(c[on]), sigma) else None
        if (nxt.tobytes(), nxt_sigma.tobytes()) in seen:
            return None
        on, sigma = nxt, nxt_sigma
    return None


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

    With ``warm``, :func:`_active_set` runs first, after the trace header
    and before any coupling is built; a point it returns that
    :func:`kkt_residual` verifies is the result, with no iteration and no
    trace row.
    """
    start = time.perf_counter()
    c, u, rho = _start(warm, p.w.matrix.shape[0], cfg.rho)
    t, a_u, g = _reduced(p)
    strict = p.model == "strict"
    basis = p.l1.basis

    def estimate(x, c):  # the model's estimate of h* = W x*
        return p.w.matrix @ x if strict else basis.reconstruct(c)

    def dual_residual(dc):
        return rho * math.sqrt(dc.dot(dc))

    if trace is not None:
        trace.write("iter,objective,fpr,primal_res,dual_res,rho\n")

    found = None if warm is None else _active_set(p, t, a_u, g, c)
    if found is not None:
        c_exact, r, steps = found
        x = _preimage(p, t, g, c_exact)
        h = estimate(x, c_exact)
        exact = SolveResult(
            x=x,
            h=h,
            c=c_exact,
            multiplier=r,
            objective=objective_relaxed(p, x, h),
            iterations=0,
            primal_residual=0.0,
            dual_residual=0.0,
            rho=rho,
            rebuilds=0,
            active_set_steps=steps,
            converged=True,
            wall_time=0.0,
        )
        if kkt_residual(p, exact) <= _KKT_TOL:
            exact.wall_time = time.perf_counter() - start
            return exact

    x_of, fv_of = _coupling(p, rho, t, a_u, g)
    thresholds = (p.alpha / rho) * p.l1.kappa
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
            x = x_of(d)
            _trace_row(
                trace,
                k,
                objective_relaxed(p, x, estimate(x, c)),
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
        x_of, fv_of = _coupling(p, rho, t, a_u, g)
        thresholds = (p.alpha / rho) * p.l1.kappa
        rebuilds += 1
    else:
        # max_iters reached: the last dual residual may not have been needed
        dual = dual_residual(c - c_prev)

    x = x_of(d)
    h = estimate(x, c)
    return SolveResult(
        x=x,
        h=h,
        c=c,
        multiplier=rho * u,
        objective=objective_relaxed(p, x, h),
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        rho=rho,
        rebuilds=rebuilds,
        active_set_steps=0,
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
    """Minimize ``problem`` by ADMM on the split ``Phi h = c``, or finish a warm start exactly.

    Converged when the primal residual ``||Phi h - c||`` and the dual
    residual ``rho ||c_k - c_{k-1}||`` are both at most ``cfg.tol``.  An
    iteration costs one n-by-n matvec when ``W W*`` is a multiple of the
    identity, and two n-by-n and two m-by-n matvecs otherwise, ``A`` being
    m-by-n; the dual residual is computed only on iterations whose primal
    residual is within ``cfg.tol``, on the iterations that balance rho, or
    on every iteration when ``trace`` is given.  Every 50 iterations rho is
    balanced against the two residuals, and each change rebuilds the v-step
    map (at most 30 per solve) from one m-by-m factorization.  A strict
    ``problem`` whose ``W`` is not of full row rank raises ``ValueError``.
    ADMM starts from ``c = u = 0`` at ``cfg.rho``, or from the final state
    of ``warm``.  A warm solve first takes primal-dual active-set steps
    from the support and signs of ``warm.c`` (see the module docstring) and
    returns their point, with ``iterations == 0``, when
    :func:`kkt_residual` is at most 1e-12 and the signs hold; otherwise, on
    an active set wider than 64, a cycle or 20 steps, ADMM runs from
    ``warm`` as above.

    Parameters
    ----------
    problem : Problem
    cfg : SolverConfig, optional
    trace : writable text stream, optional
        When given, a CSV header and one row
        ``iter,objective,fpr,primal_res,dual_res,rho`` per iteration are
        written to it; ``fpr`` is the larger of the two residuals, and
        ``rho`` the penalty of that iteration.  A solve the active set
        finishes writes the header only.  The caller opens and closes
        the stream.
    warm : SolveResult, optional
        Start from ``c = warm.c``, ``rho = warm.rho`` and
        ``u = warm.multiplier / warm.rho``, typically the result of a nearby
        problem of the same size; ``cfg.rho`` is then unused.  The
        active-set steps start from the support and signs of ``warm.c``.
        Raises ``ValueError`` when that state has the wrong length or is
        not finite.

    Returns
    -------
    SolveResult
        ``x`` is read off the last v-step, and ``h`` is the model's estimate
        of ``h* = W x*``: ``Phi* c``, exactly sparse in the wavelet
        coefficients, for the relaxed model and ``W x`` for the strict one;
        ``c``, ``multiplier`` and ``rho`` are the final ADMM state,
        ``primal_residual`` and ``dual_residual`` its residuals, and
        ``rebuilds`` the number of changes of rho; ``active_set_steps`` is
        the number of steps of a finished warm solve, else 0.  The error
        bounds concern ``result.h`` for both models.
    """
    if problem.model == "relaxed":
        return solve_relaxed(problem, cfg, trace, warm)
    return solve_strict(problem, cfg, trace, warm)
