"""Linear operators: the forward map ``W`` and the sensing map ``A``.

Every operator is a :class:`DenseMap` that holds one read-only matrix: the
identity, the integration operator and the Bernoulli sensing matrix.  The
library reads that ``matrix`` and nothing else: a product is ``matrix @ x``,
an adjoint product ``matrix.T @ y`` and the dimensions ``matrix.shape``.
Each builder checks the size against :data:`DEFAULT_MATERIALIZE_BUDGET`
entries before it allocates.  Operators are immutable after construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DenseMap",
    "IntegrationOp",
    "BernoulliSensing",
    "identity",
    "materialize",
    "operator_norm",
    "MaterializeBudgetError",
]

#: Cap on the entries of one dense operator or basis matrix.
DEFAULT_MATERIALIZE_BUDGET = 2**24

_POWER_ITER_MAX = 10_000
_POWER_ITER_TOL = 1e-8
_POWER_ITER_SEED = 0


class MaterializeBudgetError(RuntimeError):
    """A dense matrix would exceed the configured entry budget."""


def _check_budget(rows, cols):
    entries = rows * cols
    if entries > DEFAULT_MATERIALIZE_BUDGET:
        raise MaterializeBudgetError(
            f"materializing {rows}x{cols} "
            f"({entries} entries) exceeds budget {DEFAULT_MATERIALIZE_BUDGET}"
        )


class DenseMap:
    """Linear map held as one read-only dense matrix.

    ``apply(x)`` is ``matrix @ x``, kept for ``perfbench/workloads.py``,
    which calls it; the library reads ``matrix`` itself.
    """

    def __init__(self, matrix):
        self._hold(np.array(matrix, dtype=float))

    def _hold(self, matrix):
        if matrix.ndim != 2:
            raise ValueError("DenseMap requires a 2-D matrix")
        matrix.setflags(write=False)
        self.matrix = matrix

    def apply(self, x):
        return self.matrix @ x


def identity(n):
    """Identity map on ``R^n`` as a :class:`DenseMap`."""
    n = int(n)
    _check_budget(n, n)
    return DenseMap(np.eye(n))


def _is_identity(mat):
    """Whether ``mat`` is the identity matrix; allocates nothing."""
    rows, cols = mat.shape
    return (
        rows == cols
        and np.count_nonzero(mat) == cols
        and bool(np.all(mat.diagonal() == 1.0))
    )


def _spectrum(w):
    """``(U, lam)`` with ``W W* = U diag(lam) U*`` and ``U`` orthogonal.

    The identity gives ``(None, ones)`` and forms no product.  For
    :class:`IntegrationOp`, ``W W* = (n^2 D* D)^{-1}`` with ``D`` the first
    difference, whose closed form ``U_jk = sqrt(4/(2n+1)) sin((j+1) t_k)``,
    ``t_k = (2k-1) pi/(2n+1)``, ``lam_k = 1/(n^2 (2 - 2 cos t_k))`` calls no
    LAPACK routine, so its bits do not depend on the BLAS thread count.
    ``(j+1) t_k`` is ``2 pi r/(4n+2)`` with the integer
    ``r = (j+1)(2k-1) mod (4n+2)``, so ``U`` indexes one table of ``4n+2``
    sines and no argument grows past ``2 pi``.  Any other ``W`` goes through
    ``np.linalg.eigh(W W*)``, whose bits may, with ``lam`` clipped at 0.
    """
    mat = w.matrix
    n = mat.shape[0]
    if _is_identity(mat):
        return None, np.ones(n)
    if isinstance(w, IntegrationOp):
        period = 4 * n + 2
        odd = np.arange(1, 2 * n, 2)
        table = np.sin(np.arange(period) * (2.0 * np.pi / period))
        table *= np.sqrt(4.0 / (2 * n + 1))
        turns = np.outer(np.arange(1, n + 1), odd)
        turns %= period
        theta = odd * np.pi / (2 * n + 1)
        return table[turns], 1.0 / (n * n * (2.0 - 2.0 * np.cos(theta)))
    lam, u = np.linalg.eigh(mat @ mat.T)
    return u, np.maximum(lam, 0.0)


def _forward(name, n):
    """The forward map ``W`` on ``R^n`` named ``"integration"`` or ``"identity"``."""
    if name == "integration":
        return IntegrationOp(n)
    if name == "identity":
        return identity(n)
    raise ValueError(f"unknown forward operator {name!r}")


def _inverse(w, h):
    """``W^-1 h`` in closed form, or ``None`` for a ``W`` without one.

    For :class:`IntegrationOp` it is the scaled first difference
    ``n (h_i - h_{i-1})`` with ``h_{-1} = 0``; the identity gives a copy.
    """
    if isinstance(w, IntegrationOp):
        return np.diff(h, prepend=0.0) * float(w.matrix.shape[1])
    if _is_identity(w.matrix):
        return np.array(h, dtype=float)
    return None


def _inverse_adjoint(w, x):
    """``W^-* x``, or ``inf`` entries when ``np.linalg.solve`` finds ``W`` singular.

    Both ``W`` with a closed-form :func:`_inverse` satisfy ``W* = J W J``,
    ``J`` the reversal, so ``W^-* x = J W^-1 J x``, returned contiguous.
    Any other ``W`` goes through one ``np.linalg.solve`` of ``W*``.
    """
    back = _inverse(w, x[::-1])
    if back is not None:
        return np.ascontiguousarray(back[::-1])
    try:
        return np.linalg.solve(w.matrix.T, x)
    except np.linalg.LinAlgError:  # not square, or exactly singular
        return np.full_like(x, np.inf)


class IntegrationOp(DenseMap):
    """Cumulative-sum operator on a uniform grid of ``[0, 1]``.

    Holds the lower-triangular all-ones matrix scaled by ``1/n``
    (left-endpoint quadrature of the running integral).  Invertible; the
    inverse is the scaled first difference, see :func:`_inverse`.
    """

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise ValueError("IntegrationOp needs n >= 1")
        _check_budget(n, n)
        mat = np.tri(n)
        mat *= 1.0 / n
        self._hold(mat)


class BernoulliSensing(DenseMap):
    """Random sensing matrix with entries in ``{0, 1}``, each with probability 1/2.

    Entries come from the counter-based Philox generator keyed by ``seed``,
    so the matrix is identical across platforms and runs for the same
    ``(m, n, seed)``.  The matrix is drawn whole, so ``m * n`` must fit the
    budget.
    """

    def __init__(self, m, n, seed):
        m, n = int(m), int(n)
        _check_budget(m, n)
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        super().__init__(rng.integers(0, 2, size=(m, n)))


def materialize(op):
    """The read-only matrix ``op`` holds, without a copy."""
    return op.matrix


def operator_norm(mat):
    """Largest singular value of ``mat`` via power iteration on ``mat.T mat``.

    Starts from a fixed seeded random vector, so the result is deterministic,
    and stops when the Rayleigh quotient changes by a relative ``1e-8`` at
    most.  An iteration unsettled after ``10_000`` steps gives way to the
    dense SVD of ``mat``.
    """
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(key=_POWER_ITER_SEED))
    v = rng.standard_normal(cols)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITER_MAX):
        w = mat.T @ (mat @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / norm_w
        if abs(lam_new - lam) <= _POWER_ITER_TOL * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    return float(np.linalg.svd(mat, compute_uv=False)[0])
