"""Linear operators: the forward map ``W`` and the sensing map ``A``.

Every operator is a :class:`DenseMap` that holds one read-only matrix: the
identity, the integration operator and the Bernoulli sensing matrix.  Solves
and certificates read that ``matrix`` directly.  Each builder checks the
size against :data:`DEFAULT_MATERIALIZE_BUDGET` entries before it
allocates.  Operators are immutable after construction.
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

    ``apply(x)`` is ``matrix @ x`` and ``adjoint_apply(y)`` is
    ``matrix.T @ y``; a vector of the wrong length raises ``ValueError``.
    """

    def __init__(self, matrix):
        self._hold(np.array(matrix, dtype=float))

    def _hold(self, matrix):
        if matrix.ndim != 2:
            raise ValueError("DenseMap requires a 2-D matrix")
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def domain_dim(self):
        return self.matrix.shape[1]

    @property
    def codomain_dim(self):
        return self.matrix.shape[0]

    def apply(self, x):
        return self.matrix @ x

    def adjoint_apply(self, y):
        return self.matrix.T @ y

    def __repr__(self):
        return (
            f"{type(self).__name__}(domain_dim={self.domain_dim}, "
            f"codomain_dim={self.codomain_dim})"
        )


def identity(n):
    """Identity map on ``R^n`` as a :class:`DenseMap`."""
    n = int(n)
    _check_budget(n, n)
    return DenseMap(np.eye(n))


def _is_identity(op):
    """Whether ``op`` holds the identity matrix; allocates nothing."""
    return (
        op.domain_dim == op.codomain_dim
        and np.count_nonzero(op.matrix) == op.domain_dim
        and bool(np.all(op.matrix.diagonal() == 1.0))
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
        """Exact inverse ``x`` with ``apply(x) == h``: the scaled first difference."""
        h = np.asarray(h, dtype=float)
        x = np.empty_like(h)
        x[0] = h[0]
        x[1:] = h[1:] - h[:-1]
        return x * float(self.domain_dim)


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


def operator_norm(op):
    """Largest singular value via power iteration on ``op* op``.

    Starts from a fixed seeded random vector, so the result is deterministic,
    and stops when the Rayleigh quotient changes by a relative ``1e-8`` at
    most.  An iteration unsettled after ``10_000`` steps gives way to the
    dense SVD of ``op.matrix``.
    """
    if op.domain_dim == 0 or op.codomain_dim == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(key=_POWER_ITER_SEED))
    v = rng.standard_normal(op.domain_dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITER_MAX):
        w = op.adjoint_apply(op.apply(v))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / norm_w
        if abs(lam_new - lam) <= _POWER_ITER_TOL * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    return float(np.linalg.svd(op.matrix, compute_uv=False)[0])
