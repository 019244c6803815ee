from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from l1coreg.basis import WaveletBasis
from l1coreg.operators import (
    BernoulliSensing,
    ComposedMap,
    DenseMap,
    DimensionMismatchError,
    IntegrationOp,
    InverseIntegrationOp,
    MaterializeBudgetError,
    ProductMap,
    RestrictedMap,
    compose,
    from_descriptor,
    identity,
    materialize,
    operator_norm,
    restrict,
    to_descriptor,
)

# seed for which the 2x3 Bernoulli matrix materializes to ((1,0,1),(0,1,1));
# found by enumeration, frozen here together with the hand-computed product
BERNOULLI_EXAMPLE_SEED = 80


def all_kinds(n=16, m=8):
    basis = WaveletBasis(n)
    w = IntegrationOp(n)
    a = BernoulliSensing(m, n, seed=3)
    return [
        DenseMap(np.arange(15, dtype=float).reshape(5, 3)),
        w,
        InverseIntegrationOp(n),
        a,
        compose(a, w),
        ProductMap(w, a),
        restrict(a, [1, 3, 5], basis=basis),
    ]


class TestIntegrationOp:
    def test_apply_ones(self):
        out = IntegrationOp(4).apply([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(out, [0.25, 0.5, 0.75, 1.0])

    def test_apply_zero(self):
        np.testing.assert_array_equal(IntegrationOp(5).apply(np.zeros(5)), np.zeros(5))

    def test_adjoint_last_unit(self):
        out = IntegrationOp(4).adjoint_apply([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(out, [0.25, 0.25, 0.25, 0.25])

    def test_materialize_two(self):
        np.testing.assert_allclose(
            materialize(IntegrationOp(2)), [[0.5, 0.0], [0.5, 0.5]]
        )

    def test_materialize_equals_columns_exactly(self):
        w = IntegrationOp(64)
        columns = np.column_stack([w.apply(e) for e in np.eye(64)])
        np.testing.assert_array_equal(materialize(w), columns)

    def test_inverse_roundtrip(self, rng):
        w = IntegrationOp(33)
        inv = w.inverse()
        for _ in range(10):
            x = rng.standard_normal(33)
            np.testing.assert_allclose(w.apply(inv.apply(x)), x, atol=1e-12)
            np.testing.assert_allclose(inv.apply(w.apply(x)), x, atol=1e-12)


class TestBernoulli:
    def test_entries_binary_and_deterministic(self):
        a1 = BernoulliSensing(6, 10, seed=5)
        a2 = BernoulliSensing(6, 10, seed=5)
        assert set(np.unique(a1.entries)) <= {0.0, 1.0}
        np.testing.assert_array_equal(a1.entries, a2.entries)
        a3 = BernoulliSensing(6, 10, seed=6)
        assert not np.array_equal(a1.entries, a3.entries)

    def test_frozen_example(self):
        a = BernoulliSensing(2, 3, seed=BERNOULLI_EXAMPLE_SEED)
        np.testing.assert_array_equal(a.entries, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        # multiply the materialized rows by hand: (1+3, 2+3)
        np.testing.assert_allclose(a.apply([1.0, 2.0, 3.0]), [4.0, 5.0])

    def test_entry_frequency(self):
        a = BernoulliSensing(64, 64, seed=11)
        frac = a.entries.mean()
        assert 0.45 < frac < 0.55


class TestDimensionChecks:
    def test_apply_wrong_length(self):
        with pytest.raises(DimensionMismatchError) as err:
            IntegrationOp(4).apply(np.zeros(5))
        assert "4" in str(err.value) and "5" in str(err.value)

    def test_adjoint_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            BernoulliSensing(2, 3, seed=0).adjoint_apply(np.zeros(3))

    def test_compose_mismatch(self):
        with pytest.raises(ValueError):
            ComposedMap(IntegrationOp(4), IntegrationOp(5))


class TestAdjointConsistency:
    @pytest.mark.parametrize("op_idx", range(7))
    def test_inner_product_identity(self, op_idx, rng):
        op = all_kinds()[op_idx]
        norm = operator_norm(op)
        for _ in range(100):
            x = rng.standard_normal(op.domain_dim)
            y = rng.standard_normal(op.codomain_dim)
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.adjoint_apply(y))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) * max(norm, 1e-30)
            assert abs(lhs - rhs) <= bound

    def test_product_adjoint_matches_transpose(self, rng):
        m_op = ProductMap(IntegrationOp(8), BernoulliSensing(4, 8, seed=1))
        mat = materialize(m_op)
        for _ in range(20):
            y = rng.standard_normal(m_op.codomain_dim)
            np.testing.assert_allclose(m_op.adjoint_apply(y), mat.T @ y, atol=1e-12)

    def test_product_adjoint_formula(self, rng):
        w = IntegrationOp(8)
        a = BernoulliSensing(4, 8, seed=1)
        m_op = ProductMap(w, a)
        r = rng.standard_normal(8)
        s = rng.standard_normal(4)
        out = m_op.adjoint_apply(np.concatenate([r, s]))
        np.testing.assert_allclose(out[:8], w.adjoint_apply(r), atol=1e-14)
        np.testing.assert_allclose(
            out[8:], a.adjoint_apply(s) - r, atol=1e-14
        )


class TestProductMap:
    def test_forward_formula(self, rng):
        w = IntegrationOp(8)
        a = BernoulliSensing(4, 8, seed=1)
        m_op = ProductMap(w, a)
        x = rng.standard_normal(8)
        h = rng.standard_normal(8)
        out = m_op.apply(np.concatenate([x, h]))
        np.testing.assert_allclose(out[:8], w.apply(x) - h, atol=1e-14)
        np.testing.assert_allclose(out[8:], a.apply(h), atol=1e-14)

    def test_dims(self):
        m_op = ProductMap(IntegrationOp(8), BernoulliSensing(4, 8, seed=1))
        assert m_op.domain_dim == 16
        assert m_op.codomain_dim == 12


class TestMaterialize:
    def test_identity_product_columns(self, rng):
        m_op = ProductMap(identity(2), identity(2))
        mat = materialize(m_op)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_allclose(mat[:, j], m_op.apply(e), atol=1e-15)

    def test_composed_equals_matrix_product(self):
        w = IntegrationOp(6)
        a = BernoulliSensing(3, 6, seed=2)
        np.testing.assert_allclose(
            materialize(compose(a, w)), materialize(a) @ materialize(w), atol=1e-13
        )

    def test_budget_error(self):
        with pytest.raises(MaterializeBudgetError):
            materialize(IntegrationOp(8), budget=63)


class TestRestrict:
    def test_identity_columns(self):
        r = restrict(identity(4), [0, 2])
        np.testing.assert_allclose(
            materialize(r), np.eye(4)[:, [0, 2]], atol=1e-15
        )

    def test_empty_omega(self):
        r = restrict(BernoulliSensing(4, 8, seed=0), [])
        assert r.domain_dim == 0
        np.testing.assert_array_equal(r.apply(np.zeros(0)), np.zeros(4))

    def test_columns_are_basis_images(self):
        basis = WaveletBasis(8)
        a = BernoulliSensing(4, 8, seed=9)
        omega = [1, 3, 5]
        mat = materialize(restrict(a, omega, basis=basis))
        for j, lam in enumerate(omega):
            np.testing.assert_allclose(
                mat[:, j], a.apply(basis.basis_vector(lam)), atol=1e-13
            )

    def test_restrict_equals_project_then_apply(self, rng):
        basis = WaveletBasis(8)
        a = BernoulliSensing(4, 8, seed=9)
        omega = [0, 2, 6]
        r = restrict(a, omega, basis=basis)
        for _ in range(10):
            c = np.zeros(8)
            c[omega] = rng.standard_normal(3)
            np.testing.assert_allclose(
                r.apply(c[omega]), a.apply(basis.reconstruct(c)), atol=1e-13
            )

    def test_omega_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(identity(4), [4])

    def test_omega_duplicates(self):
        with pytest.raises(ValueError):
            RestrictedMap(identity(4), [1, 1])


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(identity(8)) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert operator_norm(DenseMap(np.diag([3.0, 1.0]))) == pytest.approx(
            3.0, abs=1e-7
        )

    def test_integration_matches_svd(self):
        w = IntegrationOp(64)
        top = np.linalg.svd(materialize(w), compute_uv=False)[0]
        assert operator_norm(w, tol=1e-12) == pytest.approx(top, abs=1e-8)

    def test_zero_operator(self):
        assert operator_norm(DenseMap(np.zeros((3, 4)))) == 0.0

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            operator_norm(identity(2), tol=0.0)


class TestDescriptors:
    @pytest.mark.parametrize("op_idx", range(7))
    def test_roundtrip(self, op_idx, rng):
        op = all_kinds()[op_idx]
        clone = from_descriptor(to_descriptor(op))
        assert clone.kind == op.kind
        assert clone.domain_dim == op.domain_dim
        x = rng.standard_normal(op.domain_dim)
        np.testing.assert_array_equal(clone.apply(x), op.apply(x))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_descriptor('{"kind": "mystery"}')


def test_concurrent_apply_is_safe(rng):
    op = ProductMap(IntegrationOp(64), BernoulliSensing(32, 64, seed=4))
    x = rng.standard_normal(op.domain_dim)
    expected = op.apply(x)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: op.apply(x), range(64)))
    for got in results:
        np.testing.assert_array_equal(got, expected)
