"""Source-condition certificates, restricted injectivity and rate constants.

Both models rest on one certificate.  The relaxed source condition asks for
a pair ``(u, v)`` with ``W* u = x*`` and ``A* v - u = eta`` a weighted-l1
subgradient at ``h* = W x*``; the strict one asks for ``nu`` whose pullback
splits as ``W* A* nu = x* + W* eta``.  Substituting ``u = A* v - eta`` turns
the first into the second with ``nu = v``, so one search for the split
serves both, and the models differ only in the source norm that enters the
rate constants: ``||(u, v)||`` for relaxed, ``||nu||`` for strict.  Together
with injectivity of the sensing operator restricted to the saturated
coefficient set, the certificate yields explicit linear error-rate
constants, which this module computes; :func:`check_norm_bound` checks
the norm bound that the injectivity alone provides.

The search runs in wavelet coefficients, so ``W`` must be invertible.  With
``B = Phi A*`` and ``g = Phi W^-* x*`` it alternates ``nu``, the
least-squares solution of ``B nu = g + e``, with the coefficients ``e`` of
``eta`` clipped from ``B nu - g`` to the box ``|e_lambda| <= kappa_lambda``
off the support; the split's own residual ``||W* u - x*||`` decides
validity.  ``Phi`` is orthonormal, so ``B* B = A A*``: when ``A`` has full
row rank, one whitening of the m-by-m ``A A*`` by the solver's blocked
Cholesky kernel makes every least-squares step two m-by-n products, and its
LAPACK calls are narrow enough that the search's bits do not depend on the
BLAS thread count.  Otherwise (``m > n``, or dependent rows) the steps use
the pseudo-inverse of ``B``, one SVD.  ``W^-* x*`` is ``x*`` itself for the
identity ``W``, a scaled backward difference for the integration matrix and
one dense solve for any other
(:func:`~l1coreg.operators._inverse_adjoint`).  The search is a
heuristic: a failed search is reported with its residual, never turned into
an exception, and does not prove that no certificate exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import support as coeff_support
from .operators import _inverse_adjoint, operator_norm
from .regularizers import (
    Subgradient,
    SubgradientError,
    bregman_l1,
    subgradient_from_coefficients,
)
from .solvers import _whiten

__all__ = [
    "InjectivityReport",
    "SourceCertificate",
    "RateConstants",
    "NormBoundReport",
    "certify",
    "check_restricted_injectivity",
    "find_certificate_relaxed",
    "find_certificate_strict",
    "rate_constants",
    "check_norm_bound",
    "report_lines",
]

#: sigma_min above this multiple of ||A|| (or ||W||) counts as injective.
INJECTIVITY_RTOL = 1e-10

#: Relative residual below which a certificate equation counts as satisfied.
CERTIFICATE_RTOL = 1e-8

#: Relative slack absorbing solver suboptimality in bound checks.
BOUND_SLACK_REL = 1e-6
_BOUND_SLACK_ABS = 1e-12

#: The certificate search stops after this many alternations, or once one
#: alternation lowers the split residual by at most ``_ALTERNATION_TOL``.
_MAX_ALTERNATIONS = 200
_ALTERNATION_TOL = 1e-10


@dataclass(frozen=True)
class InjectivityReport:
    """Smallest singular value of the restricted sensing operator ``A_Omega``.

    ``a_norm`` is ``||A||``, the scale of the test and the ``||A||`` of
    :func:`rate_constants` and :func:`check_norm_bound`.
    """

    omega: tuple
    sigma_min: float
    a_omega_inv_norm: float
    injective: bool
    a_norm: float


@dataclass(frozen=True)
class SourceCertificate:
    """Candidate source element of ``model`` (``"relaxed"`` or ``"strict"``).

    ``v`` (the strict model's ``nu``) realizes ``W* A* v = x* + W* eta`` up
    to ``split_residual``, and ``u = A* v - eta`` then satisfies ``W* u = x*``
    up to the same residual.  ``eta`` is the validated subgradient when the
    certificate is valid, else ``None``; ``eta_coeffs`` always holds the raw
    coefficients.  ``saturation_margin`` is measured off the support of
    ``h*``; a valid certificate satisfies strict complementarity iff it is
    positive.
    """

    model: str
    u: np.ndarray
    v: np.ndarray
    eta: Subgradient | None
    eta_coeffs: np.ndarray
    split_residual: float
    saturation_margin: float
    support: tuple
    valid: bool
    strict_complementarity: bool

    @property
    def norm_uv(self):
        return float(np.sqrt(self.u @ self.u + self.v @ self.v))

    @property
    def norm_nu(self):
        return float(np.linalg.norm(self.v))

    @property
    def source_norm(self):
        """Norm of the source element: ``||(u, v)||`` relaxed, ``||nu||`` strict."""
        return self.norm_uv if self.model == "relaxed" else self.norm_nu


@dataclass(frozen=True)
class RateConstants:
    """Constants ``c`` and ``d`` of the linear error bounds for ``C = big_c``.

    Their other ingredients live in the certificate and the injectivity
    report they came from; see :func:`rate_constants`.
    """

    c: float
    d: float
    big_c: float


@dataclass(frozen=True)
class NormBoundReport:
    """Both sides of the restricted-injectivity norm bounds."""

    lhs: float
    rhs_l1: float
    l1_ok: bool
    rhs_bregman: float | None
    bregman_ok: bool | None


def check_restricted_injectivity(a, basis, omega):
    """Injectivity of ``A`` on the span of the basis elements in ``omega``.

    Column ``i`` is ``A phi_{omega[i]}``, with ``phi`` the rows of the
    basis matrix; a dense SVD gives the smallest singular value, which must
    exceed ``INJECTIVITY_RTOL ||A||``.  Empty ``omega`` is vacuously
    injective with inverse norm 0; ``omega`` larger than the number of rows
    of ``A`` can never be injective and is reported as such (not an error).

    Raises
    ------
    ValueError
        If ``omega`` holds an index outside ``[0, n)``, ``n`` the number of
        columns of ``A``, or a duplicate.
    """
    omega = tuple(int(i) for i in omega)
    a_mat = a.matrix
    rows, n = a_mat.shape
    if len(set(omega)) != len(omega):
        raise ValueError("omega contains duplicate indices")
    for i in omega:
        if not 0 <= i < n:
            raise ValueError(f"omega index {i} out of range [0, {n})")
    a_norm = operator_norm(a_mat)
    if len(omega) == 0:
        return InjectivityReport(omega, float("inf"), 0.0, True, a_norm)
    if len(omega) > rows:
        return InjectivityReport(omega, 0.0, float("inf"), False, a_norm)
    cols = np.column_stack([a_mat @ basis.matrix[i] for i in omega])
    sigma_min = float(np.linalg.svd(cols, compute_uv=False)[-1])
    injective = sigma_min > INJECTIVITY_RTOL * max(a_norm, 1e-300)
    inv_norm = 1.0 / sigma_min if injective else float("inf")
    return InjectivityReport(omega, sigma_min, inv_norm, injective, a_norm)


def _least_squares_maps(a_mat, b_mat):
    """Maps ``(left, right, v_of)`` of the least-squares step ``min ||B nu - r||``.

    ``left @ r`` is a vector ``z``, ``right @ z`` is ``B nu`` and ``v_of(z)``
    is ``nu``.  ``Phi`` is orthonormal, so ``B* B = A A*``: when ``A`` has
    full row rank, :func:`~l1coreg.solvers._whiten` of the m-by-m ``A A*``
    against ``[B* | I]`` gives ``Y = L^-1 B*`` and ``L^-1``, with ``z = Y r``,
    ``B nu = Y* z`` and ``nu = L^-* z``.  The whitening is accepted only
    when every pivot ``l_ii`` (the reciprocal diagonal of ``L^-1``) has
    ``l_ii^2 > m eps_mach max_i (A A*)_ii``; otherwise, and for ``m > n``,
    ``left`` is the pseudo-inverse of ``B``, ``right`` is ``B`` and
    ``nu = z``.
    """
    rows, n = a_mat.shape
    if rows <= n:
        gram = a_mat @ a_mat.T
        floor = rows * np.finfo(float).eps * np.max(gram.diagonal(), initial=0.0)
        try:
            white = _whiten(gram, np.hstack([b_mat.T, np.eye(rows)]))
        except np.linalg.LinAlgError:  # not positive definite
            pass
        else:
            y_mat, l_inv = white[:, :n], white[:, n:]
            if np.all(l_inv.diagonal() ** -2 > floor):
                return y_mat, y_mat.T, lambda z: l_inv.T @ z
    return np.linalg.pinv(b_mat), b_mat, lambda z: z


def _find_certificate(model, w, a, basis, l1, x_star):
    """Search for ``nu`` and ``eta`` with ``W* A* nu = x* + W* eta``.

    ``e`` is ``kappa sign(c*)`` on the support of ``c* = Phi W x*``, and each
    step of the alternation exactly minimizes ``||B nu - g - e||`` in its
    block, through :func:`_least_squares_maps`, until that residual stops
    decreasing.  Raises ``ValueError`` if ``W`` is not square or ``x*``
    shows it singular to ``INJECTIVITY_RTOL``.
    """
    x_star = np.asarray(x_star, dtype=float)
    w_mat = w.matrix
    w_inv_x = _inverse_adjoint(w, x_star)
    # sigma_min(W) <= ||x*|| / ||W^-* x*||, and ||W|| >= ||W||_F / sqrt(n)
    floor = INJECTIVITY_RTOL * np.linalg.norm(w_mat) / np.sqrt(x_star.size)
    if not np.linalg.norm(x_star) >= floor * np.linalg.norm(w_inv_x):
        raise ValueError("the certificate search needs an invertible W")
    g = basis.decompose(w_inv_x)
    h_star = w_mat @ x_star
    c_star = basis.decompose(h_star)
    support = list(coeff_support(c_star))
    kappa = l1.kappa
    a_mat = a.matrix
    b_mat = basis.decompose(a_mat.T)
    left, right, v_of = _least_squares_maps(a_mat, b_mat)
    off = np.ones(basis.n, dtype=bool)
    off[support] = False

    eta_coeffs = np.zeros(basis.n)
    eta_coeffs[support] = kappa[support] * np.sign(c_star[support])
    prev = np.inf
    for _ in range(_MAX_ALTERNATIONS):
        z = left @ (g + eta_coeffs)
        split = right @ z - g
        eta_coeffs[off] = np.clip(split[off], -kappa[off], kappa[off])
        residual = float(np.linalg.norm(split - eta_coeffs))
        if prev - residual <= _ALTERNATION_TOL:
            break
        prev = residual

    v = v_of(z)
    u = a_mat.T @ v - basis.reconstruct(eta_coeffs)
    split_residual = float(np.linalg.norm(w_mat.T @ u - x_star))
    slack = kappa[off] - np.abs(eta_coeffs[off])
    saturation_margin = float(np.min(slack, initial=np.inf))
    valid = split_residual <= CERTIFICATE_RTOL * max(1.0, float(np.linalg.norm(x_star)))
    eta = None
    if valid:
        try:
            eta = subgradient_from_coefficients(l1, h_star, eta_coeffs)
        except SubgradientError:
            valid = False
    return SourceCertificate(
        model=model,
        u=u,
        v=v,
        eta=eta,
        eta_coeffs=eta_coeffs,
        split_residual=split_residual,
        saturation_margin=saturation_margin,
        support=tuple(support),
        valid=valid,
        strict_complementarity=valid and saturation_margin > 0.0,
    )


def find_certificate_relaxed(w, a, basis, l1, x_star):
    """Search for a relaxed-model certificate ``(u, v)`` at ``x_star``.

    ``W* u = x*`` and ``A* v - u = eta`` a subgradient at ``h* = W x*``;
    see :func:`_find_certificate`.  Invalid outcomes are reported, not
    raised.
    """
    return _find_certificate("relaxed", w, a, basis, l1, x_star)


def find_certificate_strict(w, a, basis, l1, x_star):
    """Search for a strict-model certificate ``nu`` (returned as ``v``).

    ``W* A* nu = x* + W* eta`` with ``eta`` a subgradient at ``h* = W x*``;
    the split uses ``xi = x*`` since the quadratic penalty has gradient
    identity.  See :func:`_find_certificate`.
    """
    return _find_certificate("strict", w, a, basis, l1, x_star)


def rate_constants(cert, inj, big_c):
    """Rate constants of the linear error bounds of ``cert.model``.

    ``c = (1 + C s)^2 / (2C)`` and
    ``d = 2 ||A_Omega^-1|| (1 + C s) + (1 + ||A_Omega^-1|| ||A||) / m[eta] * c``
    for ``s = cert.source_norm``, ``Omega = Omega[eta]`` and ``||A||`` the
    ``inj.a_norm`` of the injectivity report.
    """
    if not cert.valid:
        raise ValueError("rate constants require a valid certificate")
    if not 0 < big_c < np.inf:
        raise ValueError("C (alpha = C*delta) must be positive and finite")
    if not inj.injective:
        raise ValueError("rate constants are undefined without restricted injectivity")
    m_eta = cert.eta.margin
    if not m_eta > 0:
        raise ValueError(f"rate constants are undefined for margin m[eta] = {m_eta}")
    growth = 1.0 + big_c * cert.source_norm
    c = growth**2 / (2.0 * big_c)
    d = 2.0 * inj.a_omega_inv_norm * growth
    d += (1.0 + inj.a_omega_inv_norm * inj.a_norm) / m_eta * c
    return RateConstants(c=c, d=d, big_c=float(big_c))


def certify(model, w, a, basis, l1, x_star, big_c):
    """Certificate search, restricted injectivity and rate constants at ``x_star``.

    Runs the search of ``model`` (``"relaxed"`` or ``"strict"``), tests
    injectivity of ``A`` on the saturated set of the found subgradient (on
    the support of ``h* = W x*`` when the search found none) and computes
    the rate constants for the parameter-choice constant ``big_c`` when the
    certificate is valid and ``A`` is injective there.

    Returns
    -------
    (cert, inj, constants)
        ``constants`` is ``None`` when the linear bounds are not certified.
    """
    if model == "relaxed":
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
    elif model == "strict":
        cert = find_certificate_strict(w, a, basis, l1, x_star)
    else:
        raise ValueError(f"model must be 'relaxed' or 'strict', got {model!r}")
    omega = cert.eta.omega if cert.eta is not None else cert.support
    inj = check_restricted_injectivity(a, basis, omega)
    constants = None
    if cert.valid and inj.injective:
        constants = rate_constants(cert, inj, big_c)
    return cert, inj, constants


def check_norm_bound(a, basis, h, h_star, inj, eta=None, l1=None):
    """Check the norm bounds that restricted injectivity provides.

    Verifies ``||h - h*|| <= ||A_Omega^-1|| ||A h - A h*||
    + (1 + ||A_Omega^-1|| ||A||) sum_{off Omega} |<phi_lambda, h>|`` and,
    when a subgradient ``eta`` (with ``Omega = Omega[eta]``) and its
    functional ``l1`` are supplied, the variant with the l1 tail replaced by
    ``D_eta(h, h*) / m[eta]``.  ``Omega`` is ``inj.omega``, the set the
    injectivity report tested, and ``||A||`` is ``inj.a_norm``.

    Raises
    ------
    ValueError
        If ``h_star`` has energy outside ``H_Omega`` (above 1e-10) or
        ``eta``'s saturated set differs from ``Omega``.
    """
    h = np.asarray(h, dtype=float)
    h_star = np.asarray(h_star, dtype=float)
    c_star = basis.decompose(h_star)
    off = np.ones(basis.n, dtype=bool)
    off[list(inj.omega)] = False
    off_energy = float(np.linalg.norm(c_star[off]))
    if off_energy > 1e-10:
        raise ValueError(
            f"h_star has energy {off_energy:.3e} outside H_Omega; the bound "
            "requires h_star in span(phi_lambda, lambda in Omega)"
        )
    if not inj.injective:
        raise ValueError("norm bounds require an injective A_Omega")

    lhs = float(np.linalg.norm(h - h_star))
    misfit = float(np.linalg.norm(a.matrix @ h - a.matrix @ h_star))
    c_h = basis.decompose(h)
    tail_l1 = float(np.sum(np.abs(c_h[off])))
    factor = 1.0 + inj.a_omega_inv_norm * inj.a_norm
    rhs_l1 = inj.a_omega_inv_norm * misfit + factor * tail_l1
    l1_ok = lhs <= rhs_l1 * (1.0 + BOUND_SLACK_REL) + _BOUND_SLACK_ABS

    rhs_bregman = None
    bregman_ok = None
    if eta is not None:
        if l1 is None:
            raise ValueError("the Bregman variant needs the weighted-l1 functional")
        if set(eta.omega) != set(inj.omega):
            raise ValueError(
                f"eta saturates {eta.omega} but the injectivity report tested "
                f"{inj.omega}"
            )
        breg = bregman_l1(l1, eta, h, h_star)
        rhs_bregman = inj.a_omega_inv_norm * misfit + factor / eta.margin * breg
        bregman_ok = bool(
            lhs <= rhs_bregman * (1.0 + BOUND_SLACK_REL) + _BOUND_SLACK_ABS
        )
    return NormBoundReport(
        lhs=lhs,
        rhs_l1=rhs_l1,
        l1_ok=bool(l1_ok),
        rhs_bregman=rhs_bregman,
        bregman_ok=bregman_ok,
    )


def report_lines(cert, inj, constants=None):
    """Serialize a certificate, its injectivity report and any rate constants
    as ``key = value`` lines."""
    lines = [
        f"certificate_kind = {cert.model}",
        f"valid = {str(cert.valid).lower()}",
        f"split_residual = {cert.split_residual!r}",
        f"saturation_margin = {cert.saturation_margin!r}",
        f"strict_complementarity = {str(cert.strict_complementarity).lower()}",
        f"support = {','.join(str(i) for i in cert.support)}",
        f"norm_uv = {cert.norm_uv!r}",
        f"norm_nu = {cert.norm_nu!r}",
    ]
    if cert.eta is not None:
        lines.append(f"m_eta = {cert.eta.margin!r}")
        lines.append(f"omega = {','.join(str(i) for i in cert.eta.omega)}")
    lines.append(f"sigma_min = {inj.sigma_min!r}")
    lines.append(f"a_omega_inv_norm = {inj.a_omega_inv_norm!r}")
    lines.append(f"injective = {str(inj.injective).lower()}")
    if constants is not None:
        lines.append(f"big_c = {constants.big_c!r}")
        lines.append(f"c = {constants.c!r}")
        lines.append(f"d = {constants.d!r}")
        lines.append(f"a_norm = {inj.a_norm!r}")
    return lines

