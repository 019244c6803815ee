import numpy as np
import pytest

from conftest import make_sparse_signal
from l1coreg.basis import WaveletBasis
from l1coreg.regularizers import (
    SubgradientError,
    WeightedL1,
    bregman_l1,
    bregman_quadratic,
    canonical_subgradient,
    eval_weighted_l1,
    prox_weighted_l1,
    soft_threshold,
    subgradient_from_coefficients,
)


def scalar_prox_oracle(value, threshold, step=1e-4):
    """Grid-search minimizer of g -> (g - value)^2/2 + threshold*|g|."""
    grid = np.arange(-abs(value) - 1.0, abs(value) + 1.0, step)
    objective = 0.5 * (grid - value) ** 2 + threshold * np.abs(grid)
    return grid[int(np.argmin(objective))]


class TestEval:
    def test_zero(self, l1_unit8):
        assert eval_weighted_l1(l1_unit8, np.zeros(8)) == 0.0

    def test_two_spikes(self, basis8, l1_unit8):
        h = make_sparse_signal(basis8, [0, 3], [1.0, -2.0])
        assert eval_weighted_l1(l1_unit8, h) == pytest.approx(3.0, abs=1e-12)

    def test_weight_applied(self, basis8):
        kappa = np.ones(8)
        kappa[0] = 2.0
        f = WeightedL1(basis8, kappa)
        assert eval_weighted_l1(f, basis8.basis_vector(0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_positive_weights_required(self, basis8):
        with pytest.raises(ValueError):
            WeightedL1(basis8, np.array([1.0] * 7 + [0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_finite_weights_required(self, basis8, bad):
        with pytest.raises(ValueError):
            WeightedL1(basis8, np.array([1.0] * 7 + [bad]))

    def test_lower_bound(self, basis8):
        f = WeightedL1(basis8, np.linspace(0.5, 2.0, 8))
        assert f.lower_bound == pytest.approx(0.5)


class TestProx:
    def test_zero(self, l1_unit8):
        assert np.all(prox_weighted_l1(l1_unit8, np.zeros(8), 1.0) == 0.0)

    def test_spike_shrinks(self, basis8, l1_unit8):
        h = 3.0 * basis8.basis_vector(0)
        out = basis8.decompose(prox_weighted_l1(l1_unit8, h, 1.0))
        expected = scalar_prox_oracle(3.0, 1.0)
        assert out[0] == pytest.approx(expected, abs=1e-4)
        assert np.max(np.abs(out[1:])) <= 1e-12

    def test_heavy_weight_kills_spike(self, basis8):
        kappa = np.ones(8)
        kappa[0] = 2.0
        f = WeightedL1(basis8, kappa)
        h = 1.5 * basis8.basis_vector(0)
        out = prox_weighted_l1(f, h, 1.0)
        expected = scalar_prox_oracle(1.5, 2.0)
        assert abs(expected) <= 1e-4  # grid-resolution zero
        assert np.linalg.norm(out) <= 1e-12

    def test_componentwise_grid_oracle(self, rng):
        basis = WaveletBasis(16)
        kappa = rng.uniform(0.5, 2.0, 16)
        f = WeightedL1(basis, kappa)
        for _ in range(50):
            h = rng.standard_normal(16)
            t = rng.uniform(0.1, 2.0)
            out_coeffs = basis.decompose(prox_weighted_l1(f, h, t))
            c = basis.decompose(h)
            for lam in range(16):
                got = out_coeffs[lam]
                best = scalar_prox_oracle(c[lam], t * kappa[lam])
                obj = lambda g: 0.5 * (g - c[lam]) ** 2 + t * kappa[lam] * abs(g)
                assert obj(got) <= obj(best) + 1e-3

    def test_nonexpansive(self, rng, l1_unit8):
        for _ in range(30):
            h1 = rng.standard_normal(8)
            h2 = rng.standard_normal(8)
            d_out = np.linalg.norm(
                prox_weighted_l1(l1_unit8, h1, 0.7)
                - prox_weighted_l1(l1_unit8, h2, 0.7)
            )
            assert d_out <= np.linalg.norm(h1 - h2) + 1e-12

    def test_nonpositive_step(self, l1_unit8):
        with pytest.raises(ValueError):
            prox_weighted_l1(l1_unit8, np.zeros(8), 0.0)


def test_soft_threshold_values():
    np.testing.assert_allclose(
        soft_threshold(np.array([3.0, -0.5, 1.0]), np.array([1.0, 1.0, 2.0])),
        [2.0, 0.0, 0.0],
    )


class TestCanonicalSubgradient:
    def test_single_spike(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(1)
        sg = canonical_subgradient(l1_unit8, h_star)
        expected = np.zeros(8)
        expected[1] = 1.0
        np.testing.assert_allclose(sg.eta.coeffs, expected, atol=1e-12)
        assert sg.omega == (1,)
        assert sg.margin == pytest.approx(1.0)

    def test_fill_and_margin(self, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 2], [1.0, -1.0])
        fill = np.zeros(8)
        fill[1] = 0.3
        sg = canonical_subgradient(l1_unit8, h_star, fill)
        assert sg.omega == (0, 2)
        assert sg.margin == pytest.approx(0.7)

    def test_subgradient_inequality(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 3], [2.0, -1.0])
        sg = canonical_subgradient(l1_unit8, h_star)
        base = eval_weighted_l1(l1_unit8, h_star)
        eta_sig = basis8.reconstruct(sg.eta.coeffs)
        for _ in range(100):
            h = rng.standard_normal(8)
            lhs = eval_weighted_l1(l1_unit8, h)
            rhs = base + eta_sig @ (h - h_star)
            assert lhs >= rhs - 1e-10

    def test_fill_box_violation(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        fill = np.zeros(8)
        fill[5] = 1.5
        with pytest.raises(SubgradientError):
            canonical_subgradient(l1_unit8, h_star, fill)

    def test_everything_saturated(self, basis8, l1_unit8):
        h_star = basis8.reconstruct(np.ones(8))
        with pytest.raises(SubgradientError):
            canonical_subgradient(l1_unit8, h_star)

    def test_positive_homogeneity_identity(self, rng):
        basis = WaveletBasis(16)
        f = WeightedL1(basis, rng.uniform(0.5, 2.0, 16))
        for _ in range(20):
            c = np.zeros(16)
            idx = rng.choice(16, size=3, replace=False)
            c[idx] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)
            h_star = basis.reconstruct(c)
            sg = canonical_subgradient(f, h_star)
            lhs = sg.eta.coeffs @ basis.decompose(h_star)
            assert abs(lhs - eval_weighted_l1(f, h_star)) <= 1e-12 * max(1.0, lhs)


class TestSubgradientFromCoefficients:
    def test_sign_mismatch_rejected(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        bad = np.zeros(8)
        bad[0] = -1.0
        with pytest.raises(SubgradientError):
            subgradient_from_coefficients(l1_unit8, h_star, bad)

    def test_box_violation_rejected(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        bad = np.zeros(8)
        bad[0] = 1.0
        bad[4] = 1.5
        with pytest.raises(SubgradientError):
            subgradient_from_coefficients(l1_unit8, h_star, bad)

    def test_valid_roundtrip(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(2)
        eta = np.zeros(8)
        eta[2] = 1.0
        eta[5] = -0.4
        sg = subgradient_from_coefficients(l1_unit8, h_star, eta)
        assert sg.omega == (2,)
        assert sg.margin == pytest.approx(0.6)


class TestBregmanL1:
    def test_zero_at_truth(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        sg = canonical_subgradient(l1_unit8, h_star)
        assert bregman_l1(l1_unit8, sg, h_star, h_star) == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_distance(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        sg = canonical_subgradient(l1_unit8, h_star)
        val = bregman_l1(l1_unit8, sg, -h_star, h_star)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_two_formulas_agree(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [1, 4], [1.2, -0.8])
        sg = canonical_subgradient(l1_unit8, h_star)
        eta_sig = basis8.reconstruct(sg.eta.coeffs)
        for _ in range(50):
            h = rng.standard_normal(8)
            direct = bregman_l1(l1_unit8, sg, h, h_star)
            generic = (
                eval_weighted_l1(l1_unit8, h)
                - eval_weighted_l1(l1_unit8, h_star)
                - eta_sig @ (h - h_star)
            )
            assert direct == pytest.approx(generic, abs=1e-10)
            assert direct >= 0.0

    def test_lower_bound_inequality(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 2], [1.0, -1.0])
        fill = np.zeros(8)
        fill[1] = 0.3
        sg = canonical_subgradient(l1_unit8, h_star, fill)
        off = [i for i in range(8) if i not in sg.omega]
        for _ in range(100):
            h = rng.standard_normal(8)
            lhs = bregman_l1(l1_unit8, sg, h, h_star)
            tail = np.sum(np.abs(basis8.decompose(h)[off]))
            assert lhs >= sg.margin * tail - 1e-12

    def test_invalid_subgradient_rejected(self, basis8, l1_unit8):
        h_star = basis8.basis_vector(0)
        sg = canonical_subgradient(l1_unit8, h_star)
        other = basis8.basis_vector(3)  # eta is not a subgradient at other
        with pytest.raises(SubgradientError):
            bregman_l1(l1_unit8, sg, h_star, other)


class TestQuadratic:
    def test_zero(self):
        assert bregman_quadratic(np.ones(2), np.ones(2)) == 0.0

    def test_unit_offset(self):
        assert bregman_quadratic(np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(
            1.0
        )

    def test_matches_generic_formula(self, rng):
        for _ in range(100):
            x = rng.standard_normal(6)
            x_star = rng.standard_normal(6)
            generic = 0.5 * x @ x - 0.5 * x_star @ x_star - x_star @ (x - x_star)
            assert bregman_quadratic(x, x_star) == pytest.approx(generic, abs=1e-12)
            assert bregman_quadratic(x, x_star, xi=x_star) == pytest.approx(
                generic, abs=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bregman_quadratic(np.zeros(2), np.zeros(3))
