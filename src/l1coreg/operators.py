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


class IntegrationOp(DenseMap):
    """Cumulative-sum operator on a uniform grid of ``[0, 1]``.

    Holds the lower-triangular all-ones matrix scaled by ``1/n``
    (left-endpoint quadrature of the running integral).  Invertible; the
    inverse is the scaled first difference, see :meth:`inverse_apply`.
    """

    def __init__(self, n):
        n = int(n)
        if n < 1:
            raise ValueError("IntegrationOp needs n >= 1")
        _check_budget(n, n)
        mat = np.tri(n)
        mat *= 1.0 / n
        self._hold(mat)

    def inverse_apply(self, h):
        """Exact inverse ``x`` with ``matrix @ x == h``: the scaled first difference."""
        h = np.asarray(h, dtype=float)
        x = np.empty_like(h)
        x[0] = h[0]
        x[1:] = h[1:] - h[:-1]
        return x * float(self.matrix.shape[1])


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
