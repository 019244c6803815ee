"""Self-test of the KKT checker on a problem with a closed-form solution.

With ``W = A = I`` the relaxed model decouples: ``x = h / (1 + alpha)``, and
in the coefficients of any orthonormal ``Phi`` each ``c_i`` minimizes
``beta c^2/2 + (c - b_i)^2/2 + alpha kappa_i |c|`` with
``beta = alpha / (1 + alpha)`` and ``b = Phi y``, so
``c = S_{alpha kappa}(b) / (1 + beta)``.

Run with ``python3 -m pytest perfbench/test_kkt.py`` or
``python3 perfbench/test_kkt.py``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from kkt import kkt_relaxed, kkt_strict, soft_threshold  # noqa: E402


def _instance(n=32, alpha=0.05, seed=3):
    rng = np.random.default_rng(seed)
    phi, _ = np.linalg.qr(rng.standard_normal((n, n)))
    y = rng.standard_normal(n)
    kappa = rng.uniform(0.5, 2.0, n)
    beta = alpha / (1.0 + alpha)
    c = soft_threshold(phi @ y, alpha * kappa) / (1.0 + beta)
    h = phi.T @ c
    x = h / (1.0 + alpha)
    return phi, np.eye(n), y, alpha, kappa, x, h


def test_relaxed_closed_form_is_optimal():
    phi, eye, y, alpha, kappa, x, h = _instance()
    assert kkt_relaxed(phi, eye, eye, y, alpha, kappa, x, h) < 1e-13


def test_relaxed_perturbed_point_is_not():
    phi, eye, y, alpha, kappa, x, h = _instance()
    assert kkt_relaxed(phi, eye, eye, y, alpha, kappa, x, h + 1e-3 * phi[0]) > 1e-5
    assert kkt_relaxed(phi, eye, eye, y, alpha, kappa, x + 1e-3, h) > 1e-5


def test_strict_closed_form_is_optimal():
    # W = A = I: h = x minimizes ||h - y||^2/2 + alpha (||h||^2/2 + ||h||_1),
    # so c = S_{alpha kappa}(Phi y) / (1 + alpha).
    phi, eye, y, alpha, kappa, _, _ = _instance()
    x = phi.T @ (soft_threshold(phi @ y, alpha * kappa) / (1.0 + alpha))
    assert kkt_strict(phi, eye, eye, y, alpha, kappa, x) < 1e-13
    assert kkt_strict(phi, eye, eye, y, alpha, kappa, x + 1e-3 * phi[1]) > 1e-5


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok")
