import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from l1coreg.operators import (
    BernoulliSensing,
    DenseMap,
    DimensionMismatchError,
    IntegrationOp,
    LinearMap,
    MaterializeBudgetError,
    identity,
    materialize,
    operator_norm,
)

# seed for which the 2x3 Bernoulli matrix materializes to ((1,0,1),(0,1,1));
# found by enumeration, frozen here together with the hand-computed product
BERNOULLI_EXAMPLE_SEED = 80


def all_kinds(n=16, m=8):
    return [
        DenseMap(np.arange(15, dtype=float).reshape(5, 3)),
        IntegrationOp(n),
        BernoulliSensing(m, n, seed=3),
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
        for _ in range(10):
            x = rng.standard_normal(33)
            np.testing.assert_allclose(w.apply(w.inverse_apply(x)), x, atol=1e-12)
            np.testing.assert_allclose(w.inverse_apply(w.apply(x)), x, atol=1e-12)


class TestBernoulli:
    def test_entries_binary_and_deterministic(self):
        a1 = BernoulliSensing(6, 10, seed=5)
        a2 = BernoulliSensing(6, 10, seed=5)
        assert set(np.unique(a1.matrix)) <= {0.0, 1.0}
        np.testing.assert_array_equal(a1.matrix, a2.matrix)
        a3 = BernoulliSensing(6, 10, seed=6)
        assert not np.array_equal(a1.matrix, a3.matrix)

    def test_frozen_example(self):
        a = BernoulliSensing(2, 3, seed=BERNOULLI_EXAMPLE_SEED)
        np.testing.assert_array_equal(a.matrix, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        # multiply the materialized rows by hand: (1+3, 2+3)
        np.testing.assert_allclose(a.apply([1.0, 2.0, 3.0]), [4.0, 5.0])

    def test_entry_frequency(self):
        a = BernoulliSensing(64, 64, seed=11)
        frac = a.matrix.mean()
        assert 0.45 < frac < 0.55

    def test_budget_checked_before_draw(self):
        # 2**24 + 64 entries: one column's worth over the budget
        tracemalloc.start()
        try:
            with pytest.raises(MaterializeBudgetError):
                BernoulliSensing(262_145, 64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDimensionChecks:
    def test_apply_wrong_length(self):
        with pytest.raises(DimensionMismatchError) as err:
            IntegrationOp(4).apply(np.zeros(5))
        assert "4" in str(err.value) and "5" in str(err.value)

    def test_adjoint_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            BernoulliSensing(2, 3, seed=0).adjoint_apply(np.zeros(3))


class TestAdjointConsistency:
    @pytest.mark.parametrize("op_idx", range(3))
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


class TestMaterialize:
    def test_budget_error(self):
        # 4097**2 = 16,785,409 entries, refused before the matrix is built
        with pytest.raises(MaterializeBudgetError):
            materialize(IntegrationOp(4097))

    def test_needs_own_matrix(self):
        with pytest.raises(NotImplementedError):
            materialize(LinearMap(2, 3))

    @pytest.mark.parametrize("op", [
        identity(4),
        DenseMap(np.arange(6.0).reshape(2, 3)),
        BernoulliSensing(3, 5, seed=2),
    ], ids=["identity", "dense", "bernoulli"])
    def test_dense_map_returns_its_matrix(self, op):
        # no copy per solve or certificate, and no caller can change the map
        mat = materialize(op)
        assert mat is op.matrix
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0

    def test_integration_matrix_is_fresh_and_read_only(self):
        n = 16
        w = IntegrationOp(n)
        mat = materialize(w)
        np.testing.assert_array_equal(mat, np.tri(n) * (1.0 / n))
        assert materialize(w) is not mat
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0


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
        assert operator_norm(w) == pytest.approx(top, abs=1e-8)

    def test_unconverged_power_iteration_falls_back_to_svd(self, monkeypatch):
        # one power step cannot settle the Rayleigh quotient, so the norm is
        # the dense SVD's, not the one-step estimate
        monkeypatch.setattr("l1coreg.operators._POWER_ITER_MAX", 1)
        op = DenseMap(np.diag([3.0, 1.0]))
        top = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert top == 3.0
        assert operator_norm(op) == top

    def test_unconverged_beyond_budget_raises(self, monkeypatch):
        # a matrix-free operator too large to materialize: an unsettled power
        # iteration must not hand back its estimate
        monkeypatch.setattr("l1coreg.operators._POWER_ITER_MAX", 1)

        class Scaling(LinearMap):
            def __init__(self, scale):
                super().__init__(scale.shape[0], scale.shape[0])
                self.scale = scale

            def _apply(self, x):
                return self.scale * x

            def _adjoint(self, y):
                return self.scale * y

        op = Scaling(np.linspace(1.0, 3.0, 4097))
        with pytest.raises(MaterializeBudgetError):
            operator_norm(op)

    def test_zero_operator(self):
        assert operator_norm(DenseMap(np.zeros((3, 4)))) == 0.0


def test_concurrent_apply_is_safe(rng):
    op = BernoulliSensing(32, 64, seed=4)
    x = rng.standard_normal(op.domain_dim)
    expected = op.apply(x)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: op.apply(x), range(64)))
    for got in results:
        np.testing.assert_array_equal(got, expected)
