import numpy as np
import pytest

from l1coreg.basis import WaveletBasis, support as coeff_support
from l1coreg.operators import BernoulliSensing, DenseMap, identity, materialize
from l1coreg.regularizers import WeightedL1, subgradient_from_coefficients


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def basis8():
    return WaveletBasis(8)


@pytest.fixture
def l1_unit8(basis8):
    return WeightedL1(basis8)


def make_sparse_signal(basis, support, values):
    """Signal with prescribed wavelet coefficients."""
    c = np.zeros(basis.n)
    for lam, val in zip(support, values):
        c[lam] = val
    return basis.reconstruct(c)


def subgradient_at(l1, h_star, fill=None):
    """Subgradient of ``l1`` at ``h_star``: ``kappa * sign(c*)`` on the support
    of ``c* = Phi h_star`` and ``fill`` (default zero, which maximizes the
    margin) elsewhere, validated by ``subgradient_from_coefficients``."""
    c_star = l1.basis.decompose(h_star)
    on = list(coeff_support(c_star))
    eta = np.zeros(l1.basis.n) if fill is None else np.array(fill, dtype=float)
    eta[on] = l1.kappa[on] * np.sign(c_star[on])
    return subgradient_from_coefficients(l1, h_star, eta)


def certified_identity_instance(n, m, sparsity, seed):
    """Identity-forward instance of the kind used by the acceptance suite.

    Built through the production phantom generator so tests see exactly what
    sweeps produce.
    """
    from l1coreg.experiments import SweepConfig, make_phantom

    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    w = identity(n)
    cfg = SweepConfig(n=n, m=m, sparsity=sparsity, deltas=(1.0,), seed=seed)
    a = BernoulliSensing(m, n, seed=cfg.matrix_seed())
    phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
    return basis, l1, w, a, phantom.x_star, phantom.h_star


def coupling_map(w, a):
    """Relaxed coupling ``(x, h) -> (W x - h, A h)`` as the dense block matrix
    ``[[W, -I], [0, A]]`` acting on ``x`` stacked before ``h``."""
    w_mat = materialize(w)
    a_mat = materialize(a)
    return DenseMap(np.block([
        [w_mat, -np.eye(w.codomain_dim)],
        [np.zeros((a.codomain_dim, w.domain_dim)), a_mat],
    ]))
