import tracemalloc

import numpy as np
import pytest

from l1coreg.basis import (
    SUPPORT_TOL_FACTOR,
    WaveletBasis,
    _db2_filters,
    support,
)
from l1coreg.operators import MaterializeBudgetError


def test_filter_orthonormality_conditions():
    h, g = _db2_filters()
    assert abs(h @ h - 1.0) <= 1e-14
    assert abs(h[0] * h[2] + h[1] * h[3]) <= 1e-14
    assert abs(g.sum()) <= 1e-14
    assert abs(g @ np.arange(4.0)) <= 1e-14


@pytest.mark.parametrize("n", [8, 64, 256, 1024, 2048])
def test_reconstruction_and_isometry(n):
    basis = WaveletBasis(n)
    rng = np.random.default_rng(n)
    for _ in range(50):
        h = rng.standard_normal(n)
        c = basis.decompose(h)
        assert np.linalg.norm(basis.reconstruct(c) - h) <= 1e-10 * max(
            1.0, np.linalg.norm(h)
        )
        assert abs(np.linalg.norm(c) - np.linalg.norm(h)) <= 1e-10


def test_build_memory():
    # Phi is filled from slabs of the identity, not from all of it at once
    n = 1024
    tracemalloc.start()
    try:
        WaveletBasis(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n


def test_parseval_inner_products():
    basis = WaveletBasis(64)
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = rng.standard_normal(64)
        h = rng.standard_normal(64)
        lhs = basis.decompose(g) @ basis.decompose(h)
        assert abs(lhs - g @ h) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(h)


def test_analyze_zero(basis8):
    assert np.all(basis8.decompose(np.zeros(8)) == 0.0)


def test_basis_vector_roundtrip(basis8):
    for lam in range(8):
        phi = basis8.matrix[lam]
        coeffs = basis8.decompose(phi)
        expected = np.zeros(8)
        expected[lam] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_affine_signals_have_vanishing_finest_details():
    n = 64
    basis = WaveletBasis(n)
    for slope, offset in [(0.0, 1.0), (2.5, -0.3), (-1.0, 4.0)]:
        x = slope * np.arange(n) + offset
        details = basis.decompose(x)[n // 2 :]
        # only the wrap-around position may be nonzero
        assert np.max(np.abs(details[:-1])) <= 1e-12 * max(1.0, np.abs(x).max())


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        WaveletBasis(12)


def test_size_beyond_materialize_budget_rejected():
    with pytest.raises(MaterializeBudgetError):
        WaveletBasis(8192)


def test_trivial_size_one():
    basis = WaveletBasis(1)
    np.testing.assert_array_equal(basis.decompose(np.array([2.5])), [2.5])


def test_wrong_length_raises(basis8):
    with pytest.raises(ValueError):
        basis8.decompose(np.zeros(7))
    with pytest.raises(ValueError):
        basis8.reconstruct(np.zeros(9))
    with pytest.raises(ValueError):
        basis8.decompose(np.zeros((8, 2, 2)))
    with pytest.raises(ValueError):
        basis8.reconstruct(np.zeros((7, 3)))


class TestCoefficientVector:
    """``support`` of a coefficient vector, a plain array."""

    def test_support_thresholding(self):
        c = np.array([1.0, 0.0, 1e-16, 0.0, -2.0, 0, 0, 0])
        assert support(c) == (0, 4)

    def test_support_zero_vector(self):
        assert support(np.zeros(8)) == ()

    def test_support_relative_threshold(self):
        big = 1.0 / SUPPORT_TOL_FACTOR
        c = np.array([big, 0.5, 0, 0, 0, 0, 0, 0])
        # 0.5 is below the relative threshold next to the huge coefficient
        assert support(c) == (0,)
