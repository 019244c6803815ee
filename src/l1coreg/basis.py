"""Orthonormal Daubechies wavelet basis (two vanishing moments) on ``R^n``.

The periodic 4-tap filter bank, run at construction all the way down to a
single scaling coefficient, builds the analysis matrix ``Phi`` once; every
transform is then one product with ``Phi`` (analysis) or ``Phi.T``
(synthesis).  Periodization keeps the basis exactly orthonormal, so analysis
is an isometry and synthesis is its transpose.  ``Phi`` is dense, so sizes
are capped by the same entry budget as every operator,
:data:`~l1coreg.operators.DEFAULT_MATERIALIZE_BUDGET`: ``n <= 4096``.

Coefficient ordering: index 0 is the coarsest scaling coefficient, followed
by detail blocks from coarsest to finest.  The first quarter of the indices
therefore covers the coarse scales.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import _check_budget

__all__ = [
    "WaveletBasis",
    "support",
    "SUPPORT_TOL_FACTOR",
]

#: Coefficients with magnitude <= SUPPORT_TOL_FACTOR * ||c||_2 count as zero.
SUPPORT_TOL_FACTOR = 1e-12

#: Columns of the identity the filter bank transforms at a time while
#: ``Phi`` is built, so its temporaries stay small next to ``Phi`` itself.
_BUILD_COLUMNS = 128


def _db2_filters():
    """4-tap orthonormal scaling/wavelet filter pair with two vanishing moments.

    The closed form below is the (unique up to reflection) solution of the
    orthonormality conditions ``sum h_k^2 = 1``, ``sum h_k h_{k+2} = 0``,
    ``sum h_k = sqrt(2)`` together with the vanishing-moment conditions
    ``sum g_k = sum k g_k = 0`` for ``g_k = (-1)^k h_{3-k}``.
    """
    s3 = math.sqrt(3.0)
    h = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))
    g = np.array([h[3], -h[2], h[1], -h[0]])
    checks = (
        abs(h @ h - 1.0),
        abs(h[0] * h[2] + h[1] * h[3]),
        abs(h.sum() - math.sqrt(2.0)),
        abs(g.sum()),
        abs(g @ np.arange(4.0)),
    )
    if max(checks) > 1e-14:
        raise RuntimeError(f"db2 filter failed validity checks: {checks}")
    h.setflags(write=False)
    g.setflags(write=False)
    return h, g


_H, _G = _db2_filters()


def _dwt_step(x):
    """One periodic analysis step: ``a_i = sum_k h_k x_{(2i+k) mod L}``.

    Operates along axis 0, so a batch of signals can be transformed at once.
    """
    xe = x[0::2]
    xo = x[1::2]
    xe2 = np.roll(xe, -1, axis=0)
    xo2 = np.roll(xo, -1, axis=0)
    a = _H[0] * xe + _H[1] * xo + _H[2] * xe2 + _H[3] * xo2
    d = _G[0] * xe + _G[1] * xo + _G[2] * xe2 + _G[3] * xo2
    return a, d


class WaveletBasis:
    """Periodic db2 wavelet basis on ``R^n`` with ``n`` a power of two.

    Parameters
    ----------
    n : int
        Signal length; must be a power of two with ``n * n`` within
        :data:`~l1coreg.operators.DEFAULT_MATERIALIZE_BUDGET`.

    Attributes
    ----------
    matrix : ndarray
        The orthogonal analysis matrix ``Phi``, read-only, built once by the
        filter bank at construction.
    levels : int
        Decomposition depth ``log2(n)``.

    Notes
    -----
    Coefficients are plain arrays: ``decompose`` returns them and
    ``reconstruct`` takes them.  Both directions are exact inverses and
    preserve the Euclidean norm to machine precision.
    """

    def __init__(self, n):
        n = int(n)
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"wavelet basis needs a power-of-two size, got {n}")
        _check_budget(n, n)
        self.n = n
        self.levels = n.bit_length() - 1
        matrix = np.empty((n, n))
        for j in range(0, n, _BUILD_COLUMNS):
            k = min(j + _BUILD_COLUMNS, n)
            slab = np.zeros((n, k - j))
            slab[j:k] = np.eye(k - j)
            matrix[:, j:k] = self._decompose_filter_bank(slab)
        matrix.setflags(write=False)
        self.matrix = matrix

    def _decompose_filter_bank(self, h):
        c = np.empty(h.shape)
        cur = h
        length = self.n
        for _ in range(self.levels):
            a, d = _dwt_step(cur)
            half = length // 2
            c[half:length] = d
            cur = a
            length = half
        c[:length] = cur
        return c

    def _checked(self, v):
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            raise ValueError(
                f"expected shape ({self.n},) or ({self.n}, k), got {v.shape}"
            )
        return v

    def decompose(self, h):
        """Full analysis transform ``Phi @ h`` of a length-``n`` array.

        An ``(n, k)`` array is transformed column by column.
        """
        return self.matrix @ self._checked(h)

    def reconstruct(self, c):
        """Inverse ``Phi.T @ c`` of :meth:`decompose`, also column by column."""
        return self.matrix.T @ self._checked(c)


def support(c):
    """Indices with a nonzero coefficient in the coefficient array ``c``.

    A coefficient counts as zero when its magnitude is at most
    ``SUPPORT_TOL_FACTOR`` times the Euclidean norm of the whole vector.
    """
    c = np.asarray(c, dtype=float)
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        return ()
    keep = np.abs(c) > SUPPORT_TOL_FACTOR * norm
    return tuple(int(i) for i in np.nonzero(keep)[0])
