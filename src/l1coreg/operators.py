"""Linear operators: the forward map ``W`` and the sensing map ``A``.

A :class:`DenseMap` (the identity and the Bernoulli sensing matrix are
dense maps) holds one read-only matrix; :class:`IntegrationOp` applies
itself and its adjoint without forming one.  Solves and certificates take
the dense matrix through :func:`materialize`, which returns a dense map's
own matrix without a copy and builds a fresh read-only one for a
matrix-free operator, within :data:`DEFAULT_MATERIALIZE_BUDGET` entries.
Operators are immutable after construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearMap",
    "DenseMap",
    "IntegrationOp",
    "BernoulliSensing",
    "identity",
    "materialize",
    "operator_norm",
    "DimensionMismatchError",
    "MaterializeBudgetError",
]

#: Cap on ``domain_dim * codomain_dim`` for dense materialization.
DEFAULT_MATERIALIZE_BUDGET = 2**24

_POWER_ITER_MAX = 10_000
_POWER_ITER_TOL = 1e-8
_POWER_ITER_SEED = 0


class DimensionMismatchError(ValueError):
    """Input vector length does not match the operator's domain/codomain."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected vector of length {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class MaterializeBudgetError(RuntimeError):
    """Dense materialization would exceed the configured entry budget."""


def _check_budget(rows, cols):
    entries = rows * cols
    if entries > DEFAULT_MATERIALIZE_BUDGET:
        raise MaterializeBudgetError(
            f"materializing {rows}x{cols} "
            f"({entries} entries) exceeds budget {DEFAULT_MATERIALIZE_BUDGET}"
        )


def _as_vector(x, length, what):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != length:
        actual = v.shape[0] if v.ndim == 1 else f"shape {v.shape}"
        raise DimensionMismatchError(what, length, actual)
    return v


class LinearMap:
    """A bounded linear map between finite-dimensional real spaces.

    Concrete operators implement ``_apply``, ``_adjoint`` and
    ``_materialize``; callers go through :meth:`apply`,
    :meth:`adjoint_apply` and :func:`materialize`, which validate sizes and
    always return float arrays.

    Attributes
    ----------
    domain_dim, codomain_dim : int
        Lengths of input and output vectors of the forward map.
    """

    def __init__(self, domain_dim, codomain_dim):
        domain_dim = int(domain_dim)
        codomain_dim = int(codomain_dim)
        if domain_dim < 0 or codomain_dim < 0:
            raise ValueError("operator dimensions must be nonnegative")
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim

    def apply(self, x):
        """Forward application; ``len(x)`` must equal ``domain_dim``."""
        x = _as_vector(x, self.domain_dim, f"{type(self).__name__}.apply")
        return self._apply(x)

    def adjoint_apply(self, y):
        """Adjoint application; ``len(y)`` must equal ``codomain_dim``."""
        y = _as_vector(y, self.codomain_dim, f"{type(self).__name__}.adjoint_apply")
        return self._adjoint(y)

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    def _materialize(self):
        raise NotImplementedError

    def __repr__(self):
        return (
            f"{type(self).__name__}(domain_dim={self.domain_dim}, "
            f"codomain_dim={self.codomain_dim})"
        )


class DenseMap(LinearMap):
    """Linear map backed by an explicit dense matrix."""

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("DenseMap requires a 2-D matrix")
        super().__init__(matrix.shape[1], matrix.shape[0])
        matrix.setflags(write=False)
        self.matrix = matrix

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y

    def _materialize(self):
        return self.matrix


def identity(n):
    """Identity map on ``R^n`` as a :class:`DenseMap`."""
    return DenseMap(np.eye(int(n)))


def _is_identity(op):
    """Whether ``op`` is a :class:`DenseMap` of the identity; allocates nothing."""
    return (
        isinstance(op, DenseMap)
        and op.domain_dim == op.codomain_dim
        and np.count_nonzero(op.matrix) == op.domain_dim
        and bool(np.all(op.matrix.diagonal() == 1.0))
    )


class IntegrationOp(LinearMap):
    """Cumulative-sum operator on a uniform grid of ``[0, 1]``.

    Materializes to the lower-triangular all-ones matrix scaled by ``1/n``
    (left-endpoint quadrature of the running integral).  Invertible; the
    inverse is the scaled first difference, see :meth:`inverse_apply`.
    """

    def __init__(self, n):
        super().__init__(n, n)
        self.n = int(n)
        if self.n < 1:
            raise ValueError("IntegrationOp needs n >= 1")
        self.scale = 1.0 / self.n

    def _apply(self, x):
        return np.cumsum(x) * self.scale

    def _adjoint(self, y):
        return np.cumsum(y[::-1])[::-1] * self.scale

    def _materialize(self):
        mat = np.tri(self.n)
        mat *= self.scale
        mat.setflags(write=False)
        return mat

    def inverse_apply(self, h):
        """Exact inverse ``x`` with ``apply(x) == h``: the scaled first difference."""
        h = _as_vector(h, self.n, "IntegrationOp.inverse_apply")
        x = np.empty_like(h)
        x[0] = h[0]
        x[1:] = h[1:] - h[:-1]
        return x * float(self.n)


class BernoulliSensing(DenseMap):
    """Random sensing matrix with entries in ``{0, 1}``, each with probability 1/2.

    Entries come from the counter-based Philox generator keyed by ``seed``,
    so the matrix is identical across platforms and runs for the same
    ``(m, n, seed)``.  The matrix is drawn whole, so ``m * n`` must fit the
    materialization budget, which every solve and certificate needs anyway.
    """

    def __init__(self, m, n, seed):
        self.m = int(m)
        self.n = int(n)
        self.seed = int(seed)
        _check_budget(self.m, self.n)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        super().__init__(rng.integers(0, 2, size=(self.m, self.n)))


def materialize(op):
    """Read-only dense matrix ``D`` with ``D @ x == op.apply(x)`` for all ``x``.

    A :class:`DenseMap` returns the matrix it holds, without a copy; a
    matrix-free operator builds a fresh one on each call.

    Raises
    ------
    MaterializeBudgetError
        If ``domain_dim * codomain_dim`` exceeds
        :data:`DEFAULT_MATERIALIZE_BUDGET`.  There is no silent truncation.
    """
    _check_budget(op.codomain_dim, op.domain_dim)
    return op._materialize()


def operator_norm(op):
    """Largest singular value via power iteration on ``op* op``.

    Starts from a fixed seeded random vector, so the result is deterministic,
    and stops when the Rayleigh quotient changes by a relative ``1e-8`` at
    most.  An iteration unsettled after ``10_000`` steps gives way to the
    dense SVD of :func:`materialize`, which raises beyond the budget.
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
    return float(np.linalg.svd(materialize(op), compute_uv=False)[0])
