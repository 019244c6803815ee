"""Linear operators with matrix-free forward and adjoint application.

Every operator is immutable after construction, so the same instance can be
applied concurrently from several threads.  Operators can be serialized to a
one-line plain-text descriptor (kind + parameters + seed) and rebuilt from it
bit-exactly, which is what makes sweep runs replayable.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "LinearMap",
    "DenseMap",
    "IntegrationOp",
    "InverseIntegrationOp",
    "BernoulliSensing",
    "ComposedMap",
    "ProductMap",
    "RestrictedMap",
    "identity",
    "compose",
    "restrict",
    "materialize",
    "operator_norm",
    "to_descriptor",
    "from_descriptor",
    "DimensionMismatchError",
    "MaterializeBudgetError",
]

#: Default cap on ``domain_dim * codomain_dim`` for dense materialization.
DEFAULT_MATERIALIZE_BUDGET = 2**24

_POWER_ITER_MAX = 10_000
_POWER_ITER_SEED = 0


class DimensionMismatchError(ValueError):
    """Input vector length does not match the operator's domain/codomain."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected vector of length {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class MaterializeBudgetError(RuntimeError):
    """Dense materialization would exceed the configured entry budget."""


def _as_vector(x, length, what):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != length:
        actual = v.shape[0] if v.ndim == 1 else f"shape {v.shape}"
        raise DimensionMismatchError(what, length, actual)
    return v


class LinearMap:
    """A bounded linear map between finite-dimensional real spaces.

    Concrete operators implement ``_apply`` and ``_adjoint``; callers go
    through :meth:`apply` and :meth:`adjoint_apply`, which validate vector
    lengths and always return float arrays.

    Attributes
    ----------
    domain_dim, codomain_dim : int
        Lengths of input and output vectors of the forward map.
    kind : str
        One of ``dense``, ``integration``, ``bernoulli``, ``composed``,
        ``product``, ``restricted``.
    """

    kind = "dense"

    def __init__(self, domain_dim, codomain_dim):
        domain_dim = int(domain_dim)
        codomain_dim = int(codomain_dim)
        if domain_dim < 0 or codomain_dim < 0:
            raise ValueError("operator dimensions must be nonnegative")
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim

    def apply(self, x):
        """Forward application; ``len(x)`` must equal ``domain_dim``."""
        x = _as_vector(x, self.domain_dim, f"{self.kind}.apply")
        return self._apply(x)

    def adjoint_apply(self, y):
        """Adjoint application; ``len(y)`` must equal ``codomain_dim``."""
        y = _as_vector(y, self.codomain_dim, f"{self.kind}.adjoint_apply")
        return self._adjoint(y)

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    def descriptor(self):
        """Plain-data dict describing this operator (see :func:`to_descriptor`)."""
        raise NotImplementedError

    def __repr__(self):
        return (
            f"{type(self).__name__}(domain_dim={self.domain_dim}, "
            f"codomain_dim={self.codomain_dim})"
        )


class DenseMap(LinearMap):
    """Linear map backed by an explicit dense matrix."""

    kind = "dense"

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
        return self.matrix.copy()

    def descriptor(self):
        return {"kind": "dense", "matrix": self.matrix.tolist()}


def identity(n):
    """Identity map on ``R^n`` as a :class:`DenseMap`."""
    return DenseMap(np.eye(int(n)))


class IntegrationOp(LinearMap):
    """Cumulative-sum operator on a uniform grid of ``[0, 1]``.

    Materializes to the lower-triangular all-ones matrix scaled by ``1/n``
    (left-endpoint quadrature of the running integral).  Invertible; the
    inverse is the scaled first difference, see :meth:`inverse`.
    """

    kind = "integration"

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
        return mat

    def inverse(self):
        """Exact inverse (scaled first difference)."""
        return InverseIntegrationOp(self.n)

    def descriptor(self):
        return {"kind": "integration", "n": self.n, "inverse": False}


class InverseIntegrationOp(LinearMap):
    """Scaled first-difference map, the exact inverse of :class:`IntegrationOp`."""

    kind = "integration"

    def __init__(self, n):
        super().__init__(n, n)
        self.n = int(n)
        self.scale = float(n)

    def _apply(self, h):
        x = np.empty_like(h)
        x[0] = h[0]
        x[1:] = h[1:] - h[:-1]
        return x * self.scale

    def _adjoint(self, y):
        z = np.empty_like(y)
        z[:-1] = y[:-1] - y[1:]
        z[-1] = y[-1]
        return z * self.scale

    def inverse(self):
        return IntegrationOp(self.n)

    def descriptor(self):
        return {"kind": "integration", "n": self.n, "inverse": True}


class BernoulliSensing(LinearMap):
    """Random sensing matrix with entries in ``{0, 1}``, each with probability 1/2.

    Entries come from the counter-based Philox generator keyed by ``seed``,
    so the matrix is identical across platforms and runs for the same
    ``(m, n, seed)``.
    """

    kind = "bernoulli"

    def __init__(self, m, n, seed):
        super().__init__(n, m)
        self.m = int(m)
        self.n = int(n)
        self.seed = int(seed)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        entries = rng.integers(0, 2, size=(self.m, self.n)).astype(float)
        entries.setflags(write=False)
        self.entries = entries

    def _apply(self, x):
        return self.entries @ x

    def _adjoint(self, y):
        return self.entries.T @ y

    def _materialize(self):
        return self.entries.copy()

    def descriptor(self):
        return {"kind": "bernoulli", "m": self.m, "n": self.n, "seed": self.seed}


class ComposedMap(LinearMap):
    """Composition ``outer @ inner`` applied as ``outer(inner(x))``."""

    kind = "composed"

    def __init__(self, outer, inner):
        if inner.codomain_dim != outer.domain_dim:
            raise ValueError(
                "cannot compose: inner codomain "
                f"{inner.codomain_dim} != outer domain {outer.domain_dim}"
            )
        super().__init__(inner.domain_dim, outer.codomain_dim)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def _adjoint(self, y):
        return self.inner.adjoint_apply(self.outer.adjoint_apply(y))

    def descriptor(self):
        return {
            "kind": "composed",
            "outer": self.outer.descriptor(),
            "inner": self.inner.descriptor(),
        }


def compose(outer, inner):
    """Composition ``x -> outer(inner(x))``."""
    return ComposedMap(outer, inner)


class ProductMap(LinearMap):
    """Coupling operator ``(x, h) -> (W x - h, A h)`` on stacked vectors.

    The domain is ``R^(dim X + dim H)`` with ``x`` stacked before ``h``; the
    codomain is ``R^(dim H + dim Y)``.  The adjoint is
    ``(r, s) -> (W* r, A* s - r)``.
    """

    kind = "product"

    def __init__(self, w, a):
        if w.codomain_dim != a.domain_dim:
            raise ValueError(
                f"W codomain {w.codomain_dim} must match A domain {a.domain_dim}"
            )
        self.w = w
        self.a = a
        self.dim_x = w.domain_dim
        self.dim_h = w.codomain_dim
        self.dim_y = a.codomain_dim
        super().__init__(self.dim_x + self.dim_h, self.dim_h + self.dim_y)

    def stack_domain(self, x, h):
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(h, dtype=float)])

    def _apply(self, z):
        x, h = z[: self.dim_x], z[self.dim_x :]
        return np.concatenate([self.w.apply(x) - h, self.a.apply(h)])

    def _adjoint(self, rs):
        r, s = rs[: self.dim_h], rs[self.dim_h :]
        return np.concatenate([self.w.adjoint_apply(r), self.a.adjoint_apply(s) - r])

    def descriptor(self):
        return {
            "kind": "product",
            "w": self.w.descriptor(),
            "a": self.a.descriptor(),
        }


class RestrictedMap(LinearMap):
    """Restriction of a map to the span of selected basis elements.

    Acts on coefficient vectors indexed by ``omega``; column ``i`` of the
    materialization is ``base(phi_{omega[i]})``.  Without a basis, ``phi``
    is the standard basis of the base map's domain.
    """

    kind = "restricted"

    def __init__(self, base, omega, basis=None):
        omega = tuple(int(i) for i in omega)
        n = base.domain_dim
        if basis is not None and basis.n != n:
            raise ValueError(f"basis size {basis.n} != operator domain {n}")
        if len(set(omega)) != len(omega):
            raise ValueError("omega contains duplicate indices")
        for i in omega:
            if not 0 <= i < n:
                raise ValueError(f"omega index {i} out of range [0, {n})")
        super().__init__(len(omega), base.codomain_dim)
        self.base = base
        self.omega = omega
        self.basis = basis

    def _embed(self, c):
        full = np.zeros(self.base.domain_dim)
        full[list(self.omega)] = c
        if self.basis is not None:
            return self.basis.reconstruct(full)
        return full

    def _apply(self, c):
        if len(self.omega) == 0:
            return np.zeros(self.codomain_dim)
        return self.base.apply(self._embed(c))

    def _adjoint(self, y):
        back = self.base.adjoint_apply(y)
        if self.basis is not None:
            back = self.basis.decompose(back)
        return back[list(self.omega)]

    def descriptor(self):
        basis_desc = None
        if self.basis is not None:
            basis_desc = {"n": self.basis.n}
        return {
            "kind": "restricted",
            "base": self.base.descriptor(),
            "omega": list(self.omega),
            "basis": basis_desc,
        }


def restrict(a, omega, basis=None):
    """Restrict ``a`` to the span of basis elements indexed by ``omega``.

    Parameters
    ----------
    a : LinearMap
    omega : iterable of int
        Indices into the (coefficient) domain of ``a``; may be empty.
    basis : WaveletBasis, optional
        When given, the restricted map acts on wavelet coefficients and its
        columns are ``a(synthesize(e_lambda))``; otherwise standard basis
        columns of ``a`` are used.
    """
    return RestrictedMap(a, omega, basis=basis)


def materialize(op, budget=DEFAULT_MATERIALIZE_BUDGET):
    """Dense matrix ``D`` with ``D @ x == op.apply(x)`` for all ``x``.

    Raises
    ------
    MaterializeBudgetError
        If ``domain_dim * codomain_dim`` exceeds ``budget``.  There is no
        silent truncation.
    """
    entries = op.domain_dim * op.codomain_dim
    if entries > budget:
        raise MaterializeBudgetError(
            f"materializing {op.codomain_dim}x{op.domain_dim} "
            f"({entries} entries) exceeds budget {budget}"
        )
    own = getattr(op, "_materialize", None)
    if own is not None:
        return own()
    out = np.zeros((op.codomain_dim, op.domain_dim))
    probe = np.zeros(op.domain_dim)
    for j in range(op.domain_dim):
        probe[j] = 1.0
        out[:, j] = op.apply(probe)
        probe[j] = 0.0
    return out


def operator_norm(op, tol=1e-8, max_iters=_POWER_ITER_MAX):
    """Largest singular value via power iteration on ``op* op``.

    Starts from a fixed seeded random vector, so the result is deterministic.
    Stops when the Rayleigh quotient changes by a relative amount below
    ``tol``.  If power iteration does not converge within ``max_iters`` and
    the operator fits the materialization budget, falls back to a dense SVD.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if op.domain_dim == 0 or op.codomain_dim == 0:
        return 0.0
    rng = np.random.Generator(np.random.Philox(key=_POWER_ITER_SEED))
    v = rng.standard_normal(op.domain_dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = op.adjoint_apply(op.apply(v))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / norm_w
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    try:
        mat = materialize(op)
    except MaterializeBudgetError:
        return float(np.sqrt(max(lam, 0.0)))
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def to_descriptor(op):
    """One-line JSON descriptor of ``op``; see :func:`from_descriptor`."""
    return json.dumps(op.descriptor(), separators=(",", ":"), sort_keys=True)


def from_descriptor(text):
    """Rebuild an operator from :func:`to_descriptor` output."""
    if isinstance(text, str):
        data = json.loads(text)
    else:
        data = text
    return _from_descriptor_dict(data)


def _from_descriptor_dict(data):
    kind = data["kind"]
    if kind == "dense":
        return DenseMap(np.array(data["matrix"], dtype=float))
    if kind == "integration":
        if data.get("inverse", False):
            return InverseIntegrationOp(data["n"])
        return IntegrationOp(data["n"])
    if kind == "bernoulli":
        return BernoulliSensing(data["m"], data["n"], data["seed"])
    if kind == "composed":
        return ComposedMap(
            _from_descriptor_dict(data["outer"]), _from_descriptor_dict(data["inner"])
        )
    if kind == "product":
        return ProductMap(
            _from_descriptor_dict(data["w"]), _from_descriptor_dict(data["a"])
        )
    if kind == "restricted":
        basis = None
        if data.get("basis") is not None:
            from .basis import WaveletBasis

            basis = WaveletBasis(data["basis"]["n"])
        return RestrictedMap(
            _from_descriptor_dict(data["base"]), data["omega"], basis=basis
        )
    raise ValueError(f"unknown operator kind {kind!r}")
