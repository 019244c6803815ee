"""The weighted l1 penalty: value, soft-threshold, subgradients, Bregman distances.

The weighted l1 functional acts on wavelet coefficients of signals in H and is
a pure value object.  Its proximal map is :func:`soft_threshold` on the
coefficients, the c-step of the solvers.  The signal-space penalty
``||x||^2 / 2`` needs no object: the solvers inline its value and prox, and
:func:`bregman_quadratic` gives its Bregman distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import WaveletBasis, support

__all__ = [
    "WeightedL1",
    "Subgradient",
    "SubgradientError",
    "soft_threshold",
    "subgradient_from_coefficients",
    "bregman_l1",
    "bregman_quadratic",
]

#: lambda joins the saturated set when kappa - |eta| <= SATURATION_TOL * kappa.
SATURATION_TOL = 1e-12

#: Tolerance for the sign equalities when validating a subgradient.
_SIGN_EQ_TOL = 1e-8


class SubgradientError(ValueError):
    """Proposed coefficients do not form a valid l1 subgradient."""


@dataclass(frozen=True)
class WeightedL1:
    """Weighted l1 norm ``sum_lambda kappa_lambda |<phi_lambda, h>|``.

    ``kappa`` is a length-``n`` array of weights, or None for unit weights.
    Weights must be finite and bounded below by a positive constant; the
    bound is exposed as :attr:`lower_bound`.
    """

    basis: WaveletBasis
    kappa: np.ndarray = None

    def __post_init__(self):
        kappa = np.ones(self.basis.n) if self.kappa is None else self.kappa
        kappa = np.array(kappa, dtype=float)
        if kappa.shape != (self.basis.n,):
            raise ValueError(f"kappa must have length {self.basis.n}")
        if not np.all((kappa > 0.0) & np.isfinite(kappa)):
            raise ValueError("all weights kappa must be positive and finite")
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)

    @property
    def lower_bound(self):
        """The positive lower bound ``a`` of the weights."""
        return float(self.kappa.min())

    def eval(self, h):
        """Value ``sum kappa_lambda |<phi_lambda, h>|`` computed through analysis."""
        return float(np.sum(self.kappa * np.abs(self.basis.decompose(h))))


@dataclass(frozen=True)
class Subgradient:
    """An element ``eta`` of the weighted-l1 subdifferential at some ``h*``.

    Attributes
    ----------
    eta : ndarray
        Coefficients ``eta_lambda`` with ``|eta_lambda| <= kappa_lambda``
        and equality (with the sign of ``h*``) on the support of ``h*``;
        read-only.
    omega : tuple of int
        Saturated set ``{lambda : |eta_lambda| = kappa_lambda}``.
    margin : float
        ``min{kappa_lambda - |eta_lambda| : lambda not in omega}``, positive.
    """

    eta: np.ndarray
    omega: tuple
    margin: float


def soft_threshold(c, thresholds):
    """Componentwise ``sign(c) * max(|c| - thresholds, 0)``."""
    c = np.asarray(c, dtype=float)
    return np.sign(c) * np.maximum(np.abs(c) - thresholds, 0.0)


def subgradient_from_coefficients(f, h_star, eta_coeffs):
    """Validate raw coefficients as a subgradient of ``||.||_{1,kappa}`` at ``h_star``.

    Checks the box constraint everywhere and the sign equalities
    ``eta_lambda = kappa_lambda * sign(<phi_lambda, h_star>)`` on the support
    of ``h_star``, then computes the saturated set and margin.

    Raises
    ------
    SubgradientError
        If any constraint fails or the margin is not positive.
    """
    eta_coeffs = np.asarray(eta_coeffs, dtype=float)
    c_star = f.basis.decompose(h_star)
    box_violation = np.max(np.abs(eta_coeffs) - f.kappa, initial=0.0)
    if box_violation > SATURATION_TOL * f.kappa.max():
        raise SubgradientError(
            f"|eta| exceeds kappa by {box_violation:.3e} somewhere"
        )
    eta_coeffs = np.clip(eta_coeffs, -f.kappa, f.kappa)
    for lam in support(c_star):
        want = f.kappa[lam] * np.sign(c_star[lam])
        if abs(eta_coeffs[lam] - want) > _SIGN_EQ_TOL * max(1.0, f.kappa[lam]):
            raise SubgradientError(
                f"eta[{lam}] = {eta_coeffs[lam]} != kappa*sign = {want} on support"
            )
    saturated = f.kappa - np.abs(eta_coeffs) <= SATURATION_TOL * f.kappa
    omega = tuple(int(i) for i in np.nonzero(saturated)[0])
    off = ~saturated
    if not off.any():
        raise SubgradientError(
            "every index is saturated; the margin m[eta] is undefined"
        )
    margin = float(np.min(f.kappa[off] - np.abs(eta_coeffs[off])))
    if margin <= 0.0:
        raise SubgradientError(f"margin m[eta] = {margin} must be positive")
    eta_coeffs.setflags(write=False)
    return Subgradient(eta_coeffs, omega, margin)


def bregman_l1(f, eta, h, h_star):
    """Bregman distance of the weighted l1 norm at ``eta``.

    Uses positive homogeneity (``<eta, h*> = ||h*||_{1,kappa}``) to evaluate
    it as the termwise-nonnegative sum
    ``sum_lambda (kappa_lambda |c_lambda| - eta_lambda c_lambda)`` with
    ``c = decompose(h)``.

    Parameters
    ----------
    eta : Subgradient
        Must be a subgradient at ``h_star`` (re-validated here).
    """
    subgradient_from_coefficients(f, h_star, eta.eta)
    c = f.basis.decompose(h)
    terms = f.kappa * np.abs(c) - eta.eta * c
    value = float(np.sum(terms))
    if value < 0.0:
        # mathematically >= 0; only roundoff can push it below
        scale = float(np.sum(np.abs(terms))) + 1e-300
        if value < -1e-12 * scale:
            raise SubgradientError(f"Bregman distance came out negative: {value}")
        value = 0.0
    return value


def bregman_quadratic(x, x_star, xi=None):
    """Bregman distance of ``||.||^2/2`` at ``x_star``.

    ``xi`` is the subgradient at which it is taken; the default is the
    canonical one, ``xi = x_star``, where it equals ``||x - x_star||^2 / 2``.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_star.shape}")
    if xi is None:
        d = x - x_star
        return 0.5 * float(d @ d)
    xi = np.asarray(xi, dtype=float)
    gap = 0.5 * float(x @ x) - 0.5 * float(x_star @ x_star)
    return gap - float(xi @ (x - x_star))
