import numpy as np
import pytest

from conftest import make_sparse_signal, subgradient_at
from l1coreg.basis import WaveletBasis
from l1coreg.regularizers import (
    Subgradient,
    SubgradientError,
    WeightedL1,
    bregman_l1,
    bregman_quadratic,
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
        assert l1_unit8.eval(np.zeros(8)) == 0.0

    def test_two_spikes(self, basis8, l1_unit8):
        h = make_sparse_signal(basis8, [0, 3], [1.0, -2.0])
        assert l1_unit8.eval(h) == pytest.approx(3.0, abs=1e-12)

    def test_weight_applied(self, basis8):
        kappa = np.ones(8)
        kappa[0] = 2.0
        f = WeightedL1(basis8, kappa)
        assert f.eval(basis8.matrix[0]) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_positive_weights_required(self, basis8):
        with pytest.raises(ValueError):
            WeightedL1(basis8, np.array([1.0] * 7 + [0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_finite_weights_required(self, basis8, bad):
        with pytest.raises(ValueError):
            WeightedL1(basis8, np.array([1.0] * 7 + [bad]))

    def test_scalar_weight_refused(self, basis8):
        # weights are one per coefficient; unit weights are kappa=None
        with pytest.raises(ValueError, match="kappa must have length 8"):
            WeightedL1(basis8, 2.0)


class TestProx:
    """The prox of ``t ||.||_{1,kappa}`` is ``soft_threshold`` at ``t kappa`` on
    the coefficients, the c-step of the solvers."""

    def test_zero(self, l1_unit8):
        assert np.all(soft_threshold(np.zeros(8), l1_unit8.kappa) == 0.0)

    def test_spike_shrinks(self, l1_unit8):
        c = np.zeros(8)
        c[0] = 3.0
        out = soft_threshold(c, l1_unit8.kappa)
        assert out[0] == pytest.approx(scalar_prox_oracle(3.0, 1.0), abs=1e-4)
        assert np.max(np.abs(out[1:])) <= 1e-12

    def test_heavy_weight_kills_spike(self):
        kappa = np.ones(8)
        kappa[0] = 2.0
        c = np.zeros(8)
        c[0] = 1.5
        out = soft_threshold(c, kappa)
        assert abs(scalar_prox_oracle(1.5, 2.0)) <= 1e-4  # grid-resolution zero
        assert np.linalg.norm(out) <= 1e-12

    def test_componentwise_grid_oracle(self, rng):
        kappa = rng.uniform(0.5, 2.0, 16)
        for _ in range(50):
            c = rng.standard_normal(16)
            t = rng.uniform(0.1, 2.0)
            out = soft_threshold(c, t * kappa)
            for lam in range(16):
                got = out[lam]
                best = scalar_prox_oracle(c[lam], t * kappa[lam])
                obj = lambda g: 0.5 * (g - c[lam]) ** 2 + t * kappa[lam] * abs(g)
                assert obj(got) <= obj(best) + 1e-3

    def test_nonexpansive(self, rng, l1_unit8):
        thresholds = 0.7 * l1_unit8.kappa
        for _ in range(30):
            c1 = rng.standard_normal(8)
            c2 = rng.standard_normal(8)
            d_out = np.linalg.norm(
                soft_threshold(c1, thresholds) - soft_threshold(c2, thresholds)
            )
            assert d_out <= np.linalg.norm(c1 - c2) + 1e-12


def test_soft_threshold_values():
    np.testing.assert_allclose(
        soft_threshold(np.array([3.0, -0.5, 1.0]), np.array([1.0, 1.0, 2.0])),
        [2.0, 0.0, 0.0],
    )


class TestCanonicalSubgradient:
    """``kappa sign(c*)`` on the support and a fill elsewhere, validated by
    ``subgradient_from_coefficients`` (``conftest.subgradient_at``)."""

    def test_single_spike(self, basis8, l1_unit8):
        h_star = basis8.matrix[1]
        sg = subgradient_at(l1_unit8, h_star)
        expected = np.zeros(8)
        expected[1] = 1.0
        np.testing.assert_allclose(sg.eta, expected, atol=1e-12)
        assert not sg.eta.flags.writeable
        assert sg.omega == (1,)
        assert sg.margin == pytest.approx(1.0)

    def test_fill_and_margin(self, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 2], [1.0, -1.0])
        fill = np.zeros(8)
        fill[1] = 0.3
        sg = subgradient_at(l1_unit8, h_star, fill)
        assert sg.omega == (0, 2)
        assert sg.margin == pytest.approx(0.7)

    def test_subgradient_inequality(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 3], [2.0, -1.0])
        sg = subgradient_at(l1_unit8, h_star)
        base = l1_unit8.eval(h_star)
        eta_sig = basis8.reconstruct(sg.eta)
        for _ in range(100):
            h = rng.standard_normal(8)
            lhs = l1_unit8.eval(h)
            rhs = base + eta_sig @ (h - h_star)
            assert lhs >= rhs - 1e-10

    def test_fill_box_violation(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        fill = np.zeros(8)
        fill[5] = 1.5
        with pytest.raises(SubgradientError):
            subgradient_at(l1_unit8, h_star, fill)

    def test_everything_saturated(self, basis8, l1_unit8):
        h_star = basis8.reconstruct(np.ones(8))
        with pytest.raises(SubgradientError):
            subgradient_at(l1_unit8, h_star)

    def test_positive_homogeneity_identity(self, rng):
        basis = WaveletBasis(16)
        f = WeightedL1(basis, rng.uniform(0.5, 2.0, 16))
        for _ in range(20):
            c = np.zeros(16)
            idx = rng.choice(16, size=3, replace=False)
            c[idx] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)
            h_star = basis.reconstruct(c)
            sg = subgradient_at(f, h_star)
            lhs = sg.eta @ basis.decompose(h_star)
            assert abs(lhs - f.eval(h_star)) <= 1e-12 * max(1.0, lhs)


class TestSubgradientFromCoefficients:
    def test_sign_mismatch_rejected(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        bad = np.zeros(8)
        bad[0] = -1.0
        with pytest.raises(SubgradientError):
            subgradient_from_coefficients(l1_unit8, h_star, bad)

    def test_box_violation_rejected(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        bad = np.zeros(8)
        bad[0] = 1.0
        bad[4] = 1.5
        with pytest.raises(SubgradientError):
            subgradient_from_coefficients(l1_unit8, h_star, bad)

    def test_box_checked_per_weight(self, basis8):
        # a tolerance scaled by the largest weight let eta_3 = 1.9 pass the
        # box |eta_3| <= 1 and clipped it to 1
        kappa = np.ones(8)
        kappa[7] = 1e12
        eta = np.zeros(8)
        eta[0] = 1.0
        eta[3] = 1.9
        with pytest.raises(SubgradientError, match="at index 3"):
            subgradient_from_coefficients(WeightedL1(basis8, kappa),
                                          basis8.matrix[0], eta)

    def test_valid_roundtrip(self, basis8, l1_unit8):
        h_star = basis8.matrix[2]
        eta = np.zeros(8)
        eta[2] = 1.0
        eta[5] = -0.4
        sg = subgradient_from_coefficients(l1_unit8, h_star, eta)
        assert sg.omega == (2,)
        assert sg.margin == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "index, value",
        [(3, np.nan), (0, np.nan), (3, np.inf), (3, -np.inf)],
        ids=["nan-off-support", "nan-on-support", "inf", "-inf"],
    )
    def test_non_finite_rejected(self, basis8, l1_unit8, index, value):
        # NaN passes both the box and the sign comparison, so it is refused
        # before them
        h_star = basis8.matrix[0]
        eta = np.zeros(8)
        eta[0] = 1.0
        eta[index] = value
        with pytest.raises(SubgradientError, match="non-finite"):
            subgradient_from_coefficients(l1_unit8, h_star, eta)


class TestBregmanL1:
    def test_zero_at_truth(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        sg = subgradient_at(l1_unit8, h_star)
        assert bregman_l1(l1_unit8, sg, h_star, h_star) == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_distance(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        sg = subgradient_at(l1_unit8, h_star)
        val = bregman_l1(l1_unit8, sg, -h_star, h_star)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_two_formulas_agree(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [1, 4], [1.2, -0.8])
        sg = subgradient_at(l1_unit8, h_star)
        eta_sig = basis8.reconstruct(sg.eta)
        for _ in range(50):
            h = rng.standard_normal(8)
            direct = bregman_l1(l1_unit8, sg, h, h_star)
            generic = (
                l1_unit8.eval(h)
                - l1_unit8.eval(h_star)
                - eta_sig @ (h - h_star)
            )
            assert direct == pytest.approx(generic, abs=1e-10)
            assert direct >= 0.0

    def test_lower_bound_inequality(self, rng, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 2], [1.0, -1.0])
        fill = np.zeros(8)
        fill[1] = 0.3
        sg = subgradient_at(l1_unit8, h_star, fill)
        off = [i for i in range(8) if i not in sg.omega]
        for _ in range(100):
            h = rng.standard_normal(8)
            lhs = bregman_l1(l1_unit8, sg, h, h_star)
            tail = np.sum(np.abs(basis8.decompose(h)[off]))
            assert lhs >= sg.margin * tail - 1e-12

    def test_invalid_subgradient_rejected(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        sg = subgradient_at(l1_unit8, h_star)
        other = basis8.matrix[3]  # eta is not a subgradient at other
        with pytest.raises(SubgradientError):
            bregman_l1(l1_unit8, sg, h_star, other)

    def test_negative_value_refused(self, basis8, l1_unit8):
        # eta_3 = 1 + 1e-13 passes the box check's tolerance, but on c_3 = 1
        # it makes D = -1e-13, far outside the roundoff window
        eta = np.zeros(8)
        eta[0] = 1.0
        eta[3] = 1.0 + 1e-13
        sg = Subgradient(eta, (0, 3), 1.0)
        with pytest.raises(SubgradientError, match="came out negative"):
            bregman_l1(l1_unit8, sg, basis8.matrix[3], basis8.matrix[0])

    def test_roundoff_negative_clamped_to_zero(self, basis8, l1_unit8):
        # as above, eta_3 = 1 + 1e-13 on c_3 = 1 makes a term of -1e-13; here
        # eta_5 on c_5 = 1e-13 cancels it to the last bits, and every other
        # term is |c| - sign(c) c = 0.  The first eta_5 that leaves the sum
        # negative leaves it inside the guard's 1e-12 relative window
        h = basis8.matrix[0] + basis8.matrix[3] + 1e-13 * basis8.matrix[5]
        c = basis8.decompose(h)
        eta = np.sign(c)
        eta[3] = 1.0 + 1e-13
        eta[5] = (abs(c[5]) + (abs(c[3]) - eta[3] * c[3])) / c[5]
        for _ in range(100):
            terms = np.abs(c) - eta * c
            if np.sum(terms) < 0.0:
                break
            eta[5] += 1e-16
        assert -1e-12 * np.sum(np.abs(terms)) <= np.sum(terms) < 0.0
        sg = Subgradient(eta, (0, 3), 1.0)
        assert bregman_l1(l1_unit8, sg, h, basis8.matrix[0]) == 0.0


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bregman_quadratic(np.zeros(2), np.zeros(3))
