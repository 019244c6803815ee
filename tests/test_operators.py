import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from l1coreg.operators import (
    BernoulliSensing,
    DenseMap,
    IntegrationOp,
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
        out = IntegrationOp(4).matrix.T @ [0.0, 0.0, 0.0, 1.0]
        np.testing.assert_allclose(out, [0.25, 0.25, 0.25, 0.25])

    def test_materialize_two(self):
        np.testing.assert_allclose(
            materialize(IntegrationOp(2)), [[0.5, 0.0], [0.5, 0.5]]
        )

    def test_apply_is_scaled_cumsum(self, rng):
        # the definition, checked apart from the held matrix; positive
        # entries keep the running sums free of cancellation
        x = rng.uniform(0.5, 1.5, 64)
        np.testing.assert_allclose(
            IntegrationOp(64).apply(x), np.cumsum(x) / 64, rtol=1e-15, atol=0
        )

    def test_inverse_roundtrip(self, rng):
        w = IntegrationOp(33)
        for _ in range(10):
            x = rng.standard_normal(33)
            np.testing.assert_allclose(w.matrix @ w.inverse_apply(x), x, atol=1e-12)
            np.testing.assert_allclose(w.inverse_apply(w.matrix @ x), x, atol=1e-12)


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
        np.testing.assert_allclose(a.matrix @ [1.0, 2.0, 3.0], [4.0, 5.0])

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
        with pytest.raises(ValueError):
            IntegrationOp(4).apply(np.zeros(5))

    def test_adjoint_wrong_length(self):
        with pytest.raises(ValueError):
            BernoulliSensing(2, 3, seed=0).matrix.T @ np.zeros(3)


class TestAdjointConsistency:
    @pytest.mark.parametrize("op_idx", range(3))
    def test_inner_product_identity(self, op_idx, rng):
        mat = all_kinds()[op_idx].matrix
        norm = operator_norm(mat)
        for _ in range(100):
            x = rng.standard_normal(mat.shape[1])
            y = rng.standard_normal(mat.shape[0])
            lhs = float((mat @ x) @ y)
            rhs = float(x @ (mat.T @ y))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) * max(norm, 1e-30)
            assert abs(lhs - rhs) <= bound


class TestMaterialize:
    def test_budget_error(self):
        # 4097**2 = 16,785,409 entries, refused before the matrix is built
        tracemalloc.start()
        try:
            with pytest.raises(MaterializeBudgetError):
                IntegrationOp(4097)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_integration_matrix_is_held_and_read_only(self):
        n = 16
        w = IntegrationOp(n)
        mat = materialize(w)
        np.testing.assert_array_equal(mat, np.tri(n) / n)
        assert materialize(w) is mat and w.matrix is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(identity(8).matrix) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-7)

    def test_integration_matches_svd(self):
        w = IntegrationOp(64)
        top = np.linalg.svd(w.matrix, compute_uv=False)[0]
        assert operator_norm(w.matrix) == pytest.approx(top, abs=1e-8)

    def test_unconverged_power_iteration_falls_back_to_svd(self, monkeypatch):
        # one power step cannot settle the Rayleigh quotient, so the norm is
        # the dense SVD's, not the one-step estimate
        monkeypatch.setattr("l1coreg.operators._POWER_ITER_MAX", 1)
        mat = np.diag([3.0, 1.0])
        top = np.linalg.svd(mat, compute_uv=False)[0]
        assert top == 3.0
        assert operator_norm(mat) == top

    def test_zero_operator(self):
        assert operator_norm(np.zeros((3, 4))) == 0.0


def test_concurrent_apply_is_safe(rng):
    op = BernoulliSensing(32, 64, seed=4)
    x = rng.standard_normal(op.matrix.shape[1])
    expected = op.apply(x)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: op.apply(x), range(64)))
    for got in results:
        np.testing.assert_array_equal(got, expected)
