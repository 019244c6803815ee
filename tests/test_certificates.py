from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    TIGHT,
    certified_identity_instance,
    check_variational_bounds,
    coupling_map,
    make_sparse_signal,
    natural_residual,
    pinv_certificate,
    subgradient_at,
)
from l1coreg import certificates, solvers
from l1coreg.basis import WaveletBasis
from l1coreg.certificates import (
    CERTIFICATE_RTOL,
    InjectivityReport,
    SourceCertificate,
    certify,
    check_norm_bound,
    check_restricted_injectivity,
    find_certificate_relaxed,
    find_certificate_strict,
    rate_constants,
    report_lines,
)
from l1coreg.operators import (
    BernoulliSensing,
    DenseMap,
    IntegrationOp,
    _inverse,
    identity,
    operator_norm,
)
from l1coreg.cli import parse_config_text
from l1coreg.experiments import SweepConfig, default_operators, make_phantom
from l1coreg.regularizers import WeightedL1, bregman_l1
from l1coreg.solvers import Problem, SolverConfig, solve, solve_relaxed


class TestRestrictedInjectivity:
    def test_identity_any_omega(self, basis8):
        rep = check_restricted_injectivity(identity(8), basis8, [0, 3, 5])
        assert rep.injective
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-10)
        assert rep.a_omega_inv_norm == pytest.approx(1.0, abs=1e-10)

    def test_empty_omega_vacuous(self, basis8):
        rep = check_restricted_injectivity(identity(8), basis8, [])
        assert rep.injective
        assert rep.a_omega_inv_norm == 0.0

    def test_duplicated_columns_not_injective(self, basis8):
        mat = np.zeros((8, 8))
        mat[:, 0] = 1.0
        mat[:, 1] = 1.0  # identical columns
        # Phi is orthogonal with rows phi_lambda, so A = mat Phi maps
        # phi_lambda to column lambda of mat
        a = DenseMap(mat @ basis8.matrix)
        rep = check_restricted_injectivity(a, basis8, [0, 1])
        assert rep.sigma_min <= 1e-12
        assert not rep.injective
        assert rep.a_omega_inv_norm == float("inf")

    def test_more_indices_than_measurements(self, basis8):
        a = BernoulliSensing(2, 8, seed=0)
        rep = check_restricted_injectivity(a, basis8, [0, 1, 2])
        assert not rep.injective
        # three columns in R^2 have a null space: sigma_min is exactly zero
        assert rep.sigma_min == 0.0
        assert rep.a_omega_inv_norm == float("inf")

    def test_as_many_indices_as_measurements(self, basis8):
        # |Omega| = m is the largest set that can be injective
        rep = check_restricted_injectivity(identity(8), basis8, range(8))
        assert rep.injective
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-10)

    def test_no_measurements(self, basis8):
        rep = check_restricted_injectivity(BernoulliSensing(0, 8, seed=0), basis8, [0])
        assert not rep.injective
        assert rep.a_omega_inv_norm == float("inf")

    def test_no_basis_uses_standard_columns(self, basis8):
        # A = mat Phi maps phi_lambda to the standard column lambda of mat
        mat = np.diag([2.0, 3.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        a = DenseMap(mat @ basis8.matrix)
        rep = check_restricted_injectivity(a, basis8, [1, 2])
        assert rep.sigma_min == pytest.approx(3.0, abs=1e-10)
        assert rep.a_omega_inv_norm == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_columns_are_basis_images(self):
        basis = WaveletBasis(8)
        a = BernoulliSensing(4, 8, seed=9)
        omega = [1, 3, 5]
        cols = np.column_stack([a.matrix @ basis.matrix[lam] for lam in omega])
        rep = check_restricted_injectivity(a, basis, omega)
        assert rep.sigma_min == pytest.approx(
            np.linalg.svd(cols, compute_uv=False)[-1], abs=1e-13
        )

    def test_omega_out_of_range(self, basis8):
        with pytest.raises(ValueError):
            check_restricted_injectivity(identity(8), basis8, [8])

    def test_omega_duplicates(self, basis8):
        with pytest.raises(ValueError):
            check_restricted_injectivity(identity(8), basis8, [1, 1])


class TestFindCertificateRelaxed:
    def test_identity_one_sparse(self, basis8, l1_unit8):
        x_star = basis8.matrix[0]
        cert = find_certificate_relaxed(
            identity(8), identity(8), basis8, l1_unit8, x_star
        )
        assert cert.valid
        assert cert.strict_complementarity
        np.testing.assert_allclose(cert.u, x_star, atol=1e-12)
        # v = 2*phi_0 makes <phi_0, A*v - u> = 1
        np.testing.assert_allclose(cert.v, 2.0 * x_star, atol=1e-10)
        assert cert.saturation_margin == pytest.approx(1.0, abs=1e-10)
        assert cert.support == (0,)
        assert cert.eta.omega == (0,)

    def test_zero_truth_trivially_valid(self, basis8, l1_unit8):
        cert = find_certificate_relaxed(
            identity(8), identity(8), basis8, l1_unit8, np.zeros(8)
        )
        assert cert.valid
        assert cert.support == ()
        np.testing.assert_allclose(cert.v, np.zeros(8), atol=1e-12)

    def test_acceptance_style_instance_certifies(self):
        basis, l1, w, a, x_star, h_star = certified_identity_instance(64, 48, 4, 198)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        assert cert.valid
        assert cert.strict_complementarity
        assert cert.saturation_margin > 0.2
        # the subgradient equalities hold on the support
        c_star = basis.decompose(h_star)
        for lam in cert.support:
            assert cert.eta_coeffs[lam] == pytest.approx(
                np.sign(c_star[lam]), abs=1e-8
            )

    def test_integration_instance_reports_invalid(self):
        # the integration-operator phantom does not satisfy the source
        # condition at unit weights; the search must report that, not raise
        n = 64
        basis = WaveletBasis(n)
        l1 = WeightedL1(basis)
        w = IntegrationOp(n)
        a = BernoulliSensing(32, n, seed=5)
        h_star = make_sparse_signal(basis, [0, 3, 7, 11], [1.0, -0.8, 1.2, 0.6])
        x_star = _inverse(w, h_star)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        assert not cert.valid
        assert cert.eta is None
        assert cert.split_residual > CERTIFICATE_RTOL * max(
            1.0, np.linalg.norm(x_star)
        )
        # the split residual is the split's own ||W* u - x*||, not the
        # coefficient residual the search minimizes, which differs for W != I
        w_mat = w.matrix
        a_mat = a.matrix
        split = np.linalg.norm(w_mat.T @ cert.u - x_star)
        assert split == pytest.approx(cert.split_residual, rel=1e-12)
        coeff = np.linalg.norm(cert.u - np.linalg.solve(w_mat.T, x_star))
        assert coeff != pytest.approx(split, rel=1e-3)
        np.testing.assert_allclose(
            basis.decompose(a_mat.T @ cert.v - cert.u),
            cert.eta_coeffs,
            atol=1e-12,
        )

    def test_saturation_margin_is_off_support_slack(self):
        basis, l1, w, a, x_star, h_star = certified_identity_instance(64, 48, 4, 198)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        off = np.setdiff1d(np.arange(basis.n), cert.support)
        slack = l1.kappa[off] - np.abs(cert.eta_coeffs[off])
        assert cert.saturation_margin == np.min(slack)
        assert 0.0 < cert.saturation_margin < 1.0

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_full_support_is_no_subgradient(self, basis8, l1_unit8, model):
        # every coefficient of h* = x* is nonzero: e = sign(c*) splits
        # exactly, but it saturates every index, so it has no margin and is
        # no subgradient; nothing is left off the support, so the margin
        # there is infinite and strict complementarity must still be false
        x_star = basis8.reconstruct(np.arange(1.0, 9.0) * (-1.0) ** np.arange(8))
        cert, inj, constants = certify(
            model, identity(8), identity(8), basis8, l1_unit8, x_star, 1.0
        )
        assert cert.support == tuple(range(8))
        assert cert.split_residual <= 1e-13
        assert not cert.valid
        assert cert.eta is None
        assert cert.saturation_margin == float("inf")
        assert not cert.strict_complementarity
        assert inj.injective and constants is None

    def test_invertibility_floor_scales_down_with_n(self):
        # W = diag(1, ..., 1, eps) and x* = e_15 show sigma_min(W) <= eps;
        # the floor is 1e-10 ||W||_F / sqrt(16) = 1e-10 sqrt(15)/4 ~ 9.7e-11,
        # so eps = 1e-9 is searched and eps = 1e-11 refused
        basis = WaveletBasis(16)
        l1 = WeightedL1(basis)
        x_star = np.eye(16)[15]
        for eps, accepted in ((1e-9, True), (1e-11, False)):
            w = DenseMap(np.diag(np.r_[np.ones(15), eps]))
            if accepted:
                cert = find_certificate_relaxed(w, identity(16), basis, l1, x_star)
                assert cert.support
            else:
                with pytest.raises(ValueError, match="invertible W"):
                    find_certificate_relaxed(w, identity(16), basis, l1, x_star)

    @pytest.mark.parametrize(
        "w",
        [DenseMap(np.vstack([np.eye(8)[:7], np.eye(8)[:1]])),
         # LU finds no zero pivot here, though W (1, ..., 8) = 0
         DenseMap(np.eye(8) - np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0))
                  / 204.0),
         DenseMap(np.eye(8)[:, :6])],
        ids=["singular", "numerically-singular", "non-square"],
    )
    def test_non_invertible_forward_refused(self, basis8, l1_unit8, w):
        # the search works in coefficients through W^-*, so it needs W invertible
        x_star = np.ones(w.matrix.shape[1])
        with pytest.raises(ValueError, match="invertible W"):
            find_certificate_relaxed(w, identity(8), basis8, l1_unit8, x_star)
        for model in ("relaxed", "strict"):
            with pytest.raises(ValueError, match="invertible W"):
                certify(model, w, identity(8), basis8, l1_unit8, x_star, 1.0)


class TestFindCertificateStrict:
    def test_identity_one_sparse(self, basis8, l1_unit8):
        x_star = basis8.matrix[0]
        cert = find_certificate_strict(
            identity(8), identity(8), basis8, l1_unit8, x_star
        )
        assert cert.valid
        assert cert.model == "strict"
        assert cert.split_residual <= 1e-8
        # nu with coefficient 2 at the support realizes the split
        np.testing.assert_allclose(
            basis8.decompose(cert.v)[0], 2.0, atol=1e-8
        )
        assert cert.source_norm == pytest.approx(2.0, abs=1e-10)

    def test_zero_truth(self, basis8, l1_unit8):
        cert = find_certificate_strict(
            identity(8), identity(8), basis8, l1_unit8, np.zeros(8)
        )
        assert cert.valid
        np.testing.assert_allclose(cert.v, np.zeros(8), atol=1e-10)

    def test_split_residual_recomputation(self):
        basis, l1, w, a, x_star, h_star = certified_identity_instance(32, 24, 3, 1)
        cert = find_certificate_strict(w, a, basis, l1, x_star)
        if not cert.valid:
            pytest.skip("instance did not certify; nothing to recompute")
        w_mat = w.matrix
        a_mat = a.matrix
        eta_sig = basis.reconstruct(cert.eta_coeffs)
        split = np.linalg.norm(
            w_mat.T @ (a_mat.T @ cert.v) - x_star - w_mat.T @ eta_sig
        )
        assert split == pytest.approx(cert.split_residual, abs=1e-10)
        assert split <= 1e-8

        # the same split is a relaxed certificate: W* u = x*, A* v - u = eta
        relaxed = find_certificate_relaxed(w, a, basis, l1, x_star)
        assert relaxed.valid and relaxed.model == "relaxed"
        tol = CERTIFICATE_RTOL * max(1.0, np.linalg.norm(x_star))
        assert np.linalg.norm(w_mat.T @ relaxed.u - x_star) <= tol
        np.testing.assert_allclose(
            basis.decompose(a_mat.T @ relaxed.v - relaxed.u),
            relaxed.eta_coeffs,
            atol=1e-12,
        )

    def test_both_models_certify_alike(self):
        # identity forward operator: the relaxed and strict source conditions
        # are the same equation, so certify must reach the same verdict
        basis, l1, w, a, x_star, h_star = certified_identity_instance(32, 24, 3, 1)
        (rel, rel_inj, rel_k), (st, st_inj, st_k) = (
            certify(model, w, a, basis, l1, x_star, 1.0)
            for model in ("relaxed", "strict")
        )
        assert rel.valid and st.valid
        assert rel_inj.injective and st_inj.injective
        assert rel.eta.omega == st.eta.omega
        assert rel.eta.margin == st.eta.margin
        # C = 1, so c = (1 + s)^2 / 2 for each model's own source norm s
        assert rel_k.c == pytest.approx((1.0 + rel.norm_uv) ** 2 / 2.0)
        assert st_k.c == pytest.approx((1.0 + st.norm_nu) ** 2 / 2.0)


def _count_pinv(monkeypatch):
    """Record the shape of every ``np.linalg.pinv`` argument from now on."""
    calls = []
    pinv = np.linalg.pinv

    def spy(mat, *args, **kwargs):
        calls.append(mat.shape)
        return pinv(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    return calls


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestSearchPaths:
    """The search whitens ``A A*`` when ``A`` has full row rank and takes the
    pseudo-inverse of ``B = Phi A*`` otherwise; ``pinv_certificate`` is the
    reference for both."""

    @pytest.mark.parametrize("forward", ["identity", "integration"])
    def test_whitened_search_matches_pinv(self, monkeypatch, forward):
        # seed 198 certifies with identity W; with integration W the search
        # runs all its alternations and stays invalid
        basis, l1, w, a, x_star, h_star = certified_identity_instance(64, 48, 4, 198)
        if forward == "integration":
            w = IntegrationOp(64)
            x_star = _inverse(w, h_star)
        ref = pinv_certificate(w, a, basis, l1, x_star)
        calls = _count_pinv(monkeypatch)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        assert calls == []
        assert cert.valid == ref.valid == (forward == "identity")
        assert cert.support == ref.support
        for got, want in ((cert.v, ref.v), (cert.u, ref.u),
                          (cert.eta_coeffs, ref.eta_coeffs)):
            assert _relative_gap(got, want) <= 1e-9

    @staticmethod
    def duplicated_row_sensing():
        # a full-rank 7-by-16 Bernoulli matrix with its first row appended
        rows = BernoulliSensing(7, 16, seed=0).matrix
        return DenseMap(np.vstack([rows, rows[:1]]))

    @staticmethod
    def zero_row_sensing():
        # a full-rank 7-by-16 Bernoulli matrix with an all-zero row appended
        rows = BernoulliSensing(7, 16, seed=0).matrix
        return DenseMap(np.vstack([rows, np.zeros(16)]))

    @pytest.mark.parametrize(
        "kind", ["wide", "square-deficient", "duplicated-row", "zero-row"]
    )
    def test_rank_deficient_sensing_takes_pinv(self, monkeypatch, kind):
        if kind == "wide":
            basis, l1, w, a, x_star, _ = certified_identity_instance(16, 24, 2, 3)
        else:
            basis = WaveletBasis(8 if kind == "square-deficient" else 16)
            l1 = WeightedL1(basis)
            w = identity(basis.n)
            x_star = make_sparse_signal(basis, [0, 3], [1.0, -0.5])
            if kind == "square-deficient":
                a = BernoulliSensing(8, 8, seed=0)
            elif kind == "zero-row":
                a = self.zero_row_sensing()
            else:
                a = self.duplicated_row_sensing()
        rows, n = a.matrix.shape
        assert np.linalg.matrix_rank(a.matrix) < rows
        ref = pinv_certificate(w, a, basis, l1, x_star)
        calls = _count_pinv(monkeypatch)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        assert calls == [(n, rows)]
        np.testing.assert_array_equal(cert.v, ref.v)
        np.testing.assert_array_equal(cert.u, ref.u)
        np.testing.assert_array_equal(cert.eta_coeffs, ref.eta_coeffs)
        assert cert.support == ref.support
        assert cert.valid == ref.valid

    def test_zero_pivot_fails_whitening(self):
        # an all-zero row of A gives A A* a zero pivot, so the search's
        # whitening raises and it takes the pseudo-inverse
        a_mat = self.zero_row_sensing().matrix
        with pytest.raises(np.linalg.LinAlgError):
            solvers._whiten(a_mat @ a_mat.T, np.eye(len(a_mat)))

    def test_pivot_guard_rejects_factor_of_singular_gram(self):
        # the Cholesky factor of this singular A A* exists in floating
        # point, so only the pivot test keeps the search off it
        a_mat = self.duplicated_row_sensing().matrix
        gram = a_mat @ a_mat.T
        floor = len(gram) * np.finfo(float).eps * gram.diagonal().max()
        pivots = solvers._whiten(gram.copy(), np.eye(len(gram))).diagonal() ** -2
        assert pivots.min() <= floor < pivots[:-1].min()

    @pytest.mark.parametrize("forward", ["identity", "integration"])
    def test_full_rank_search_takes_only_narrow_lapack_calls(
        self, monkeypatch, forward
    ):
        # n=256, m=128: two 64-wide blocks factor A A*, no pseudo-inverse,
        # and W^-* x* is x* itself for identity W and a backward difference
        # for the integration W: no dense solve
        n, m = 256, 128
        basis = WaveletBasis(n)
        l1 = WeightedL1(basis)
        cfg = SweepConfig(n=n, m=m, sparsity=8, deltas=(1.0,), seed=178)
        w, a = default_operators(cfg, forward)
        x_star = make_phantom(n, 8, cfg.phantom_seed(), basis, w).x_star
        rows = {"pinv": [], "cholesky": [], "inv": [], "solve": []}

        def spy(name):
            call = getattr(np.linalg, name)

            def wrapped(mat, *args, **kwargs):
                rows[name].append(mat.shape[0])
                return call(mat, *args, **kwargs)

            return wrapped

        for name in rows:
            monkeypatch.setattr(np.linalg, name, spy(name))
        for model in ("relaxed", "strict"):
            for seen in rows.values():
                seen.clear()
            certify(model, w, a, basis, l1, x_star, 1.0)
            assert rows["pinv"] == []
            for name in ("cholesky", "inv"):
                assert len(rows[name]) == m // solvers._FACTOR_BLOCK
                assert max(rows[name]) <= solvers._FACTOR_BLOCK
            assert rows["solve"] == []


def synthetic_unit_certificate(basis, l1):
    """Certificate with all norm ingredients equal to one (paper example)."""
    h_star = basis.matrix[0]
    sg = subgradient_at(l1, h_star)
    cert = SourceCertificate(
        model="relaxed",
        u=basis.matrix[0] * 0.0,
        v=np.zeros(basis.n),
        eta=sg,
        eta_coeffs=sg.eta,
        split_residual=0.0,
        saturation_margin=1.0,
        support=(0,),
        valid=True,
        strict_complementarity=True,
    )
    return cert


class TestRateConstants:
    def test_paper_unit_example(self, basis8, l1_unit8):
        # C=1, ||(u,v)|| = 1, ||A_Omega^-1|| = 1, ||A|| = 1, m = 1
        # gives c = (1+1)^2/2 = 2 and d = 2*1*2 + (1+1)/1 * 2 = 8
        cert = synthetic_unit_certificate(basis8, l1_unit8)
        u = np.zeros(8)
        u[0] = 1.0  # ||(u, v)|| = 1 with v = 0
        cert = replace(cert, u=u)
        inj = InjectivityReport(omega=(0,), sigma_min=1.0, a_omega_inv_norm=1.0,
                                injective=True, a_norm=1.0)
        constants = rate_constants(cert, inj, big_c=1.0)
        assert constants.c == pytest.approx(2.0, abs=1e-12)
        assert constants.d == pytest.approx(8.0, abs=1e-12)

    def test_strict_unit_example(self, basis8, l1_unit8):
        base = synthetic_unit_certificate(basis8, l1_unit8)
        nu = np.zeros(8)
        nu[0] = 1.0
        # the strict source norm is ||nu||, whatever u is
        cert = replace(base, model="strict", u=np.ones(8), v=nu)
        inj = InjectivityReport(omega=(0,), sigma_min=1.0, a_omega_inv_norm=1.0,
                                injective=True, a_norm=1.0)
        constants = rate_constants(cert, inj, big_c=1.0)
        assert constants.c == pytest.approx(2.0, abs=1e-12)
        assert constants.d == pytest.approx(8.0, abs=1e-12)

    def test_hand_checkable_constants_off_unity(self, basis8, l1_unit8):
        # C = 1/2, ||(u,v)|| = 1, ||A_Omega^-1|| = 1/2, ||A|| = 4, m = 1 gives
        # c = (1 + 1/2)^2/(2 * 1/2) = 9/4 and d = 2 * 1/2 * 3/2 + (1 + 2) * 9/4
        # = 33/4; the C = 1 examples cannot tell (1 + Cs)^2/(2C) from
        # (1 + Cs)^2 C/2
        cert = synthetic_unit_certificate(basis8, l1_unit8)
        u = np.zeros(8)
        u[0] = 1.0
        cert = replace(cert, u=u)
        inj = InjectivityReport(omega=(0,), sigma_min=2.0, a_omega_inv_norm=0.5,
                                injective=True, a_norm=4.0)
        constants = rate_constants(cert, inj, big_c=0.5)
        assert constants.c == pytest.approx(2.25, abs=1e-12)
        assert constants.d == pytest.approx(8.25, abs=1e-12)

    def test_monotone_growth_in_big_c(self, basis8, l1_unit8):
        cert = synthetic_unit_certificate(basis8, l1_unit8)
        u = np.zeros(8)
        u[0] = 1.0
        cert = replace(cert, u=u)
        inj = InjectivityReport(omega=(0,), sigma_min=1.0, a_omega_inv_norm=1.0,
                                injective=True, a_norm=1.0)
        values = [
            rate_constants(cert, inj, big_c=c).c
            for c in (1.0, 10.0, 100.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_recomputation_from_ingredients(self):
        basis, l1, w, a, x_star, h_star = certified_identity_instance(64, 48, 4, 198)
        cert = find_certificate_relaxed(w, a, basis, l1, x_star)
        inj = check_restricted_injectivity(a, basis, cert.eta.omega)
        assert inj.a_norm == operator_norm(a.matrix)
        q = inj.a_omega_inv_norm
        # C = 1 alone cannot tell 1/(2C) from C/2
        for big_c in (1.0, 1e-4):
            k = rate_constants(cert, inj, big_c=big_c)
            growth = 1.0 + big_c * cert.norm_uv
            c = growth**2 / (2.0 * big_c)
            d = 2.0 * q * growth + (1.0 + q * inj.a_norm) / cert.eta.margin * c
            assert k.c == pytest.approx(c, abs=1e-12 * max(1.0, c))
            assert k.d == pytest.approx(d, abs=1e-12 * max(1.0, d))

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_certify_computes_operator_norm_once(self, monkeypatch, model):
        # the injectivity test and the rate constants share one ||A||
        basis, l1, w, a, x_star, h_star = certified_identity_instance(32, 24, 3, 1)
        calls = []

        def counted(mat):
            calls.append(mat)
            return operator_norm(mat)

        monkeypatch.setattr(certificates, "operator_norm", counted)
        cert, inj, constants = certify(model, w, a, basis, l1, x_star, 1.0)
        assert constants is not None
        assert len(calls) == 1 and calls[0] is a.matrix
        assert inj.a_norm == operator_norm(a.matrix)

    def test_invalid_inputs_raise(self, basis8, l1_unit8):
        cert = synthetic_unit_certificate(basis8, l1_unit8)
        inj_bad = InjectivityReport(omega=(0,), sigma_min=0.0,
                                    a_omega_inv_norm=float("inf"), injective=False,
                                    a_norm=1.0)
        inj_ok = InjectivityReport(omega=(0,), sigma_min=1.0, a_omega_inv_norm=1.0,
                                   injective=True, a_norm=1.0)
        with pytest.raises(ValueError):
            rate_constants(cert, inj_bad, big_c=1.0)
        # an infinite C gave c = d = nan on a valid certificate
        for big_c in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                rate_constants(cert, inj_ok, big_c=big_c)
        invalid = replace(
            cert, split_residual=1.0, valid=False, strict_complementarity=False
        )
        with pytest.raises(ValueError):
            rate_constants(invalid, inj_ok, big_c=1.0)


class TestVariationalBounds:
    def test_hand_checkable_identity_instance(self, basis8, l1_unit8):
        # 1-D effective problem in the phi_0 coordinate, solved in closed form
        w = identity(8)
        a = identity(8)
        m_op = coupling_map(w, a)
        x_star = basis8.matrix[0]
        h_star = x_star.copy()
        alpha = 1.0
        # minimizer of (x-h)^2/2 + (h-1)^2/2 + (x^2/2 + |h|): h stays positive
        # iff the data is large enough; for y=1 the solution is x=h=0
        # (threshold exceeds the pull), giving easy exact sides; use y=3 phi0
        y_big = 3.0 * basis8.matrix[0]
        p = Problem("relaxed", w, a, y_big, alpha, l1_unit8)
        res = solve_relaxed(p, SolverConfig(tol=1e-13))
        # the certified pair: x* = phi0, h* = phi0, y* = A h* = phi0
        cert = find_certificate_relaxed(w, a, basis8, l1_unit8, x_star)
        assert cert.valid
        source = np.concatenate([cert.u, cert.v])
        x_sol = np.concatenate([res.x, res.h])
        y_delta_prod = np.concatenate([np.zeros(8), y_big])
        y_star_prod = np.concatenate([np.zeros(8), a.matrix @ h_star])
        breg = 0.5 * np.linalg.norm(res.x - x_star) ** 2 + bregman_l1(
            l1_unit8, cert.eta, res.h, h_star
        )
        report = check_variational_bounds(
            m_op, source, x_sol, y_delta_prod, y_star_prod, alpha, breg
        )
        # hand sides: delta = 2, ||(u,v)|| = sqrt(1+4) = sqrt5
        assert report.delta == pytest.approx(2.0, abs=1e-12)
        norm_uv = np.sqrt(5.0)
        assert report.residual_rhs == pytest.approx(2.0 + 2.0 * norm_uv, abs=1e-10)
        assert report.bregman_rhs == pytest.approx(
            (2.0 + norm_uv) ** 2 / 2.0, abs=1e-10
        )
        assert report.all_ok

    def test_report_only_never_raises(self, basis8, l1_unit8):
        m_op = coupling_map(identity(8), identity(8))
        report = check_variational_bounds(
            m_op,
            np.zeros(16),
            np.ones(16) * 100.0,  # absurd "solution"
            np.zeros(16),
            np.zeros(16),
            1.0,
            1e6,
        )
        assert not report.all_ok


class TestNormBound:
    def test_equal_signals_trivial(self, basis8, l1_unit8):
        h_star = make_sparse_signal(basis8, [0, 2], [1.0, -1.0])
        inj = check_restricted_injectivity(identity(8), basis8, [0, 2])
        rep = check_norm_bound(identity(8), basis8, h_star, h_star, inj)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.l1_ok

    def test_single_offset_hand_computed(self, basis8, l1_unit8):
        # h = h* + phi_mu with mu off Omega and A = I:
        # lhs = 1, rhs = 1*1 + (1+1)*1 = 3
        h_star = basis8.matrix[0]
        h = h_star + basis8.matrix[5]
        inj = check_restricted_injectivity(identity(8), basis8, [0])
        rep = check_norm_bound(identity(8), basis8, h, h_star, inj)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs_l1 == pytest.approx(3.0, abs=1e-8)
        assert rep.l1_ok

    def test_factor_grows_with_operator_norm(self, basis8, l1_unit8):
        # A = 2 I: sigma_min = ||A|| = 2, so the tail factor is
        # 1 + (1/2) 2 = 2; h = h* + phi_5 gives lhs = 1, misfit = 2, tail = 1
        # and rhs = (1/2) 2 + 2 * 1 = 3.  eta = 1/2 off Omega = {0} has
        # margin 1/2 and D_eta(h, h*) = 2 - 3/2 = 1/2, so the Bregman side is
        # (1/2) 2 + (2 / (1/2)) (1/2) = 3 too
        a = DenseMap(2.0 * np.eye(8))
        h_star = basis8.matrix[0]
        eta = subgradient_at(l1_unit8, h_star, fill=np.full(8, 0.5))
        inj = check_restricted_injectivity(a, basis8, [0])
        assert inj.a_norm == pytest.approx(2.0, rel=1e-12)
        assert inj.a_omega_inv_norm == pytest.approx(0.5, rel=1e-12)
        assert eta.margin == 0.5
        rep = check_norm_bound(a, basis8, h_star + basis8.matrix[5], h_star, inj,
                               eta=eta, l1=l1_unit8)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs_l1 == pytest.approx(3.0, rel=1e-12)
        assert rep.rhs_bregman == pytest.approx(3.0, rel=1e-12)
        assert rep.l1_ok and rep.bregman_ok

    def test_verdicts_fail_within_a_factor_two(self, basis8, l1_unit8):
        # h = h* + phi_0/2 has no tail off Omega = {0}, D_eta(h, h*) = 0 and
        # A = I, so both sides are inv_norm * lhs: the true inv_norm 1 meets
        # the bounds with equality, and an understated 0.6 misses them by a
        # factor 1/0.6 < 2
        h_star = basis8.matrix[0]
        h = 1.5 * h_star
        eta = subgradient_at(l1_unit8, h_star)
        inj = check_restricted_injectivity(identity(8), basis8, [0])
        for inv_norm, ok in ((1.0, True), (0.6, False)):
            rep = check_norm_bound(
                identity(8), basis8, h, h_star,
                replace(inj, a_omega_inv_norm=inv_norm), eta=eta, l1=l1_unit8,
            )
            assert rep.lhs == pytest.approx(0.5, rel=1e-12)
            assert rep.rhs_l1 == pytest.approx(0.5 * inv_norm, rel=1e-12)
            assert rep.rhs_bregman == pytest.approx(0.5 * inv_norm, rel=1e-12)
            assert rep.l1_ok is ok and rep.bregman_ok is ok

    def test_randomized_instances(self, rng):
        n = 32
        basis = WaveletBasis(n)
        for trial in range(100):
            m = int(rng.integers(12, 25))
            a = BernoulliSensing(m, n, seed=int(rng.integers(0, 2**31)))
            omega = sorted(rng.choice(n, size=3, replace=False).tolist())
            inj = check_restricted_injectivity(a, basis, omega)
            if not inj.injective:
                continue
            c_star = np.zeros(n)
            c_star[omega] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)
            h_star = basis.reconstruct(c_star)
            h = h_star + 0.5 * rng.standard_normal(n)
            rep = check_norm_bound(a, basis, h, h_star, inj)
            assert rep.l1_ok

    def test_reuses_operator_norm_of_report(self, monkeypatch, rng):
        # ||A|| comes from the injectivity report; the bound computes none
        n = 16
        basis = WaveletBasis(n)
        a = BernoulliSensing(12, n, seed=3)
        omega = [0, 2]
        inj = check_restricted_injectivity(a, basis, omega)
        c_star = np.zeros(n)
        c_star[omega] = [1.0, -1.0]
        h_star = basis.reconstruct(c_star)
        h = h_star + 0.3 * rng.standard_normal(n)
        calls = []

        def counted(mat):
            calls.append(mat)
            return operator_norm(mat)

        monkeypatch.setattr(certificates, "operator_norm", counted)
        rep = check_norm_bound(a, basis, h, h_star, inj)
        assert calls == []
        assert rep.l1_ok

    def test_bregman_variant(self, rng):
        n = 16
        basis = WaveletBasis(n)
        l1 = WeightedL1(basis)
        a = BernoulliSensing(12, n, seed=3)
        omega = [0, 2]
        c_star = np.zeros(n)
        c_star[omega] = [1.0, -1.0]
        h_star = basis.reconstruct(c_star)
        sg = subgradient_at(l1, h_star)
        inj = check_restricted_injectivity(a, basis, omega)
        assert inj.injective
        for _ in range(50):
            h = h_star + 0.3 * rng.standard_normal(n)
            rep = check_norm_bound(a, basis, h, h_star, inj, eta=sg, l1=l1)
            assert rep.l1_ok and rep.bregman_ok

    def test_off_support_energy_rejected(self, basis8, l1_unit8):
        h_star = basis8.matrix[0] + 0.5 * basis8.matrix[4]
        inj = check_restricted_injectivity(identity(8), basis8, [0])
        with pytest.raises(ValueError):
            check_norm_bound(identity(8), basis8, h_star, h_star, inj)

    def test_omega_mismatch_rejected(self, basis8, l1_unit8):
        h_star = basis8.matrix[0]
        sg = subgradient_at(l1_unit8, h_star)
        inj = check_restricted_injectivity(identity(8), basis8, [0, 1])
        with pytest.raises(ValueError):
            check_norm_bound(
                identity(8), basis8, h_star, h_star, inj, eta=sg, l1=l1_unit8,
            )


class TestReportRoundTrip:
    def test_relaxed_report(self, basis8, l1_unit8):
        x_star = basis8.matrix[0]
        cert = find_certificate_relaxed(
            identity(8), identity(8), basis8, l1_unit8, x_star
        )
        inj = check_restricted_injectivity(identity(8), basis8, cert.eta.omega)
        constants = rate_constants(cert, inj, 1.0)
        lines = report_lines(cert, inj, constants)
        parsed = parse_config_text("\n".join(lines))
        assert parsed["certificate_kind"] == "relaxed"
        assert parsed["valid"] == "true"
        assert float(parsed["saturation_margin"]) == pytest.approx(1.0, abs=1e-10)
        assert float(parsed["c"]) == constants.c
        assert float(parsed["d"]) == constants.d
        assert parsed["omega"] == "0"

    def test_strict_report(self, basis8, l1_unit8):
        cert = find_certificate_strict(
            identity(8), identity(8), basis8, l1_unit8, basis8.matrix[0]
        )
        inj = check_restricted_injectivity(identity(8), basis8, cert.eta.omega)
        lines = report_lines(cert, inj)
        parsed = parse_config_text("\n".join(lines))
        assert parsed["certificate_kind"] == "strict"
        assert parsed["valid"] == "true"
        assert float(parsed["split_residual"]) <= 1e-8
        # both source norms are printed: nu = 2 phi_0, u = phi_0
        assert float(parsed["norm_nu"]) == pytest.approx(2.0, abs=1e-10)
        assert float(parsed["norm_uv"]) == pytest.approx(np.sqrt(5.0), abs=1e-10)


class TestCertify:
    """``certify`` and ``report_lines`` with ``W = A = I`` at n = 8 and the
    one-sparse phantom that seed 3 draws."""

    @pytest.fixture
    def x_star(self, basis8):
        cfg = SweepConfig(n=8, m=8, sparsity=1, deltas=(1.0,), seed=3)
        return make_phantom(8, 1, cfg.phantom_seed(), basis8, identity(8)).x_star

    def test_identity_instance_constants(self, basis8, l1_unit8, x_star):
        cert, inj, constants = certify(
            "relaxed", identity(8), identity(8), basis8, l1_unit8, x_star, 1.0
        )
        kv = parse_config_text("\n".join(report_lines(cert, inj, constants)))
        assert kv["valid"] == "true"
        rep = {
            key: float(kv[key])
            for key in ("saturation_margin", "sigma_min", "big_c", "norm_uv",
                        "a_omega_inv_norm", "a_norm", "m_eta", "c", "d")
        }
        assert rep["saturation_margin"] == pytest.approx(1.0, abs=1e-10)
        assert rep["sigma_min"] == pytest.approx(1.0, abs=1e-10)
        # constants recompute from the reported ingredients
        growth = 1.0 + rep["big_c"] * rep["norm_uv"]
        c = growth**2 / (2 * rep["big_c"])
        d = 2 * rep["a_omega_inv_norm"] * growth + (
            1 + rep["a_omega_inv_norm"] * rep["a_norm"]
        ) / rep["m_eta"] * c
        assert rep["c"] == pytest.approx(c, rel=1e-12)
        assert rep["d"] == pytest.approx(d, rel=1e-12)

    def test_strict_model(self, basis8, l1_unit8, x_star):
        cert, inj, constants = certify(
            "strict", identity(8), identity(8), basis8, l1_unit8, x_star, 1.0
        )
        assert cert.valid and inj.injective and constants is not None
        assert "certificate_kind = strict" in report_lines(cert, inj, constants)


class TestStrictBoundSuite:
    def test_strict_rate_bounds_on_certified_instance(self):
        # strict-model analogue of the relaxed bound suite: on an instance
        # whose strict split certificate is valid, accurate solves obey
        # D_xi <= c*delta and ||W x - W x*|| <= d*delta
        from l1coreg.experiments import add_noise

        basis, l1, w, a, x_star, h_star = certified_identity_instance(32, 24, 3, 1)
        cert = find_certificate_strict(w, a, basis, l1, x_star)
        assert cert.valid
        inj = check_restricted_injectivity(a, basis, cert.eta.omega)
        assert inj.injective
        constants = rate_constants(cert, inj, 1.0)
        y_star = a.matrix @ h_star
        for i, delta in enumerate((1e-2, 1e-3, 1e-4)):
            for trial in range(2):
                y_delta = add_noise(y_star, delta, 1_000 + 10 * i + trial)
                p = Problem("strict", w, a, y_delta, delta, l1)
                res = solve(p, TIGHT)
                assert res.converged
                assert natural_residual(p, res) <= 1e-12
                x = res.x
                breg = 0.5 * float(x @ x) - 0.5 * float(x_star @ x_star)
                breg -= float(x_star @ (x - x_star))
                err_wx = np.linalg.norm(w.matrix @ res.x - h_star)
                assert breg <= constants.c * delta * (1 + 1e-6) + 1e-10
                assert err_wx <= constants.d * delta * (1 + 1e-6) + 1e-10
