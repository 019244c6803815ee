"""Optimality evidence for a solve, computed from its output alone.

Both models reduce to "smooth part + alpha * weighted l1" in the wavelet
coefficients ``c = Phi h``.  A point is optimal exactly when the natural
residual

    r = c - S_{alpha kappa}(c - Phi grad_h f)

vanishes, where ``S_t`` is componentwise soft-thresholding.  The relaxed
model also has the unpenalized variable ``x``, whose optimality condition is
``grad_x f = 0``.  The residual is scaled by ``||Phi A* y||_inf``, the
smallest alpha at which ``h = 0`` is optimal, so that values from instances
of different size compare.

Everything here works on dense matrices the caller supplies (the analysis
matrix ``Phi``, the forward operator ``W`` and the sensing operator ``A``),
so the check shares no code with the solvers it judges.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _scale(phi, a, y):
    return max(float(np.max(np.abs(phi @ (a.T @ y)))), 1e-300)


def kkt_relaxed(phi, w, a, y, alpha, kappa, x, h):
    """Relative natural residual of the relaxed model at ``(x, h)``.

    Smooth part ``f = ||W x - h||^2/2 + ||A h - y||^2/2 + alpha ||x||^2/2``.
    """
    coupling = w @ x - h
    grad_x = w.T @ coupling + alpha * x
    grad_h = -coupling + a.T @ (a @ h - y)
    c = phi @ h
    r_c = c - soft_threshold(c - phi @ grad_h, alpha * kappa)
    worst = max(float(np.max(np.abs(grad_x))), float(np.max(np.abs(r_c))))
    return worst / _scale(phi, a, y)


def kkt_strict(phi, w, a, y, alpha, kappa, x):
    """Relative natural residual of the strict model at ``x``.

    With ``h = W x`` the smooth part is
    ``f(h) = ||A h - y||^2/2 + alpha ||W^-1 h||^2/2``, whose gradient is
    ``A*(A h - y) + alpha W^-* x``.
    """
    h = w @ x
    grad_h = a.T @ (a @ h - y) + alpha * np.linalg.solve(w.T, x)
    c = phi @ h
    r_c = c - soft_threshold(c - phi @ grad_h, alpha * kappa)
    return float(np.max(np.abs(r_c))) / _scale(phi, a, y)
