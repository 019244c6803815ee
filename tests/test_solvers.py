import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    TIGHT,
    certified_identity_instance,
    exact_minimizer,
    natural_residual,
)
from l1coreg import experiments, solvers
from l1coreg.basis import WaveletBasis
from l1coreg.experiments import (
    SweepConfig,
    add_noise,
    default_operators,
    make_phantom,
    run_sweep,
)
from l1coreg.operators import (
    BernoulliSensing,
    DenseMap,
    IntegrationOp,
    identity,
)
from l1coreg.regularizers import WeightedL1
from l1coreg.solvers import (
    Problem,
    SolverConfig,
    objective_relaxed,
    solve,
    solve_relaxed,
    solve_strict,
)


def random_small_problem(rng, n=16, m=8, model="relaxed", alpha=None):
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    w = IntegrationOp(n)
    a = BernoulliSensing(m, n, seed=int(rng.integers(0, 2**31)))
    y = rng.standard_normal(m)
    alpha = alpha or float(rng.uniform(0.05, 0.5))
    return Problem(model, w, a, y, alpha, l1)


def last_trace_objective(buf):
    return float(buf.getvalue().strip().splitlines()[-1].split(",")[1])


class TestObjectives:
    def test_relaxed_zero(self, basis8, l1_unit8):
        p = Problem("relaxed", identity(8), identity(8), np.zeros(8), 1.0, l1_unit8)
        assert objective_relaxed(p, np.zeros(8), np.zeros(8)) == 0.0

    def test_relaxed_plugin_1d(self):
        basis = WaveletBasis(1)
        l1 = WeightedL1(basis)
        p = Problem("relaxed", identity(1), identity(1), np.ones(1), 1.0, l1)
        # 0 + 0 + 1*(0.5 + 1) with x = h = y = (1)
        assert objective_relaxed(p, np.ones(1), np.ones(1)) == pytest.approx(1.5)

    def test_relaxed_recomputation(self, rng):
        for _ in range(10):
            p = random_small_problem(rng)
            x = rng.standard_normal(16)
            h = rng.standard_normal(16)
            expected = (
                0.5 * np.linalg.norm(p.w.matrix @ x - h) ** 2
                + 0.5 * np.linalg.norm(p.a.matrix @ h - p.y_delta) ** 2
                + p.alpha * (0.5 * np.linalg.norm(x) ** 2 + p.l1.eval(h))
            )
            assert objective_relaxed(p, x, h) == pytest.approx(expected, abs=1e-12)

    def test_strict_zero(self, l1_unit8):
        p = Problem("strict", identity(8), identity(8), np.zeros(8), 1.0, l1_unit8)
        # the strict functional is the relaxed one at h = W x
        assert objective_relaxed(p, np.zeros(8), np.zeros(8)) == 0.0

    def test_strict_plugin_1d(self):
        basis = WaveletBasis(1)
        l1 = WeightedL1(basis)
        p = Problem("strict", identity(1), identity(1), np.ones(1), 1.0, l1)
        assert objective_relaxed(p, np.ones(1), p.w.matrix @ np.ones(1)) == (
            pytest.approx(1.5)
        )

    def test_strict_recomputation(self, rng):
        for _ in range(10):
            p = random_small_problem(rng, model="strict")
            x = rng.standard_normal(16)
            wx = p.w.matrix @ x
            expected = 0.5 * np.linalg.norm(
                p.a.matrix @ wx - p.y_delta
            ) ** 2 + p.alpha * (0.5 * np.linalg.norm(x) ** 2 + p.l1.eval(wx))
            assert objective_relaxed(p, x, wx) == pytest.approx(expected, abs=1e-12)


class TestConfigValidation:
    def test_defaults_ok(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"tol": 0.0},
            {"rho": -1.0},
            {"rho": 0.0},
            {"tol": float("nan")},
            {"rho": float("nan")},
            # tol = inf stopped a solve after one iteration as "converged"
            {"tol": float("inf")},
            {"rho": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_problem_dim_checks(self, basis8, l1_unit8):
        eye = identity(8)
        with pytest.raises(ValueError):
            Problem("relaxed", eye, eye, np.zeros(7), 1.0, l1_unit8)
        with pytest.raises(ValueError):
            Problem("relaxed", eye, eye, np.zeros(8), 0.0, l1_unit8)
        # alpha = inf gave a "converged" solve with objective nan
        with pytest.raises(ValueError):
            Problem("strict", eye, eye, np.zeros(8), np.inf, l1_unit8)
        with pytest.raises(ValueError):
            Problem("relaxed", IntegrationOp(4), eye, np.zeros(8), 1.0, l1_unit8)
        l1_16 = WeightedL1(WaveletBasis(16))
        with pytest.raises(ValueError, match="l1 basis size 16 != intermediate dimension 8"):
            Problem("relaxed", eye, eye, np.zeros(8), 1.0, l1_16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_problem_rejects_non_finite_data(self, l1_unit8, bad):
        eye = identity(8)
        y = np.zeros(8)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            Problem("relaxed", eye, eye, y, 1.0, l1_unit8)

    def test_model_checks(self, l1_unit8):
        eye = identity(8)
        with pytest.raises(ValueError):
            Problem("elastic", eye, eye, np.zeros(8), 1.0, l1_unit8)
        with pytest.raises(ValueError):
            solve_relaxed(Problem("strict", eye, eye, np.zeros(8), 1.0, l1_unit8))
        with pytest.raises(ValueError):
            solve_strict(Problem("relaxed", eye, eye, np.zeros(8), 1.0, l1_unit8))


def grid_search_2d(objective, span=4.0, steps=3):
    """Coarse-to-fine 2-D grid minimizer used as an independent oracle."""
    center = np.zeros(2)
    width = span
    for _ in range(steps * 4):
        xs = np.linspace(center[0] - width, center[0] + width, 41)
        hs = np.linspace(center[1] - width, center[1] + width, 41)
        vals = [[objective(x, h) for h in hs] for x in xs]
        i, j = np.unravel_index(np.argmin(vals), (41, 41))
        center = np.array([xs[i], hs[j]])
        width /= 8.0
    return center


class TestSolveRelaxed:
    def test_penalty_dominated_limit(self, basis8, l1_unit8):
        y = 3.0 * basis8.matrix[0]
        alpha = 1e3 * np.linalg.norm(y)
        p = Problem("relaxed", identity(8), identity(8), y, alpha, l1_unit8)
        res = solve_relaxed(p, SolverConfig(tol=1e-13))
        assert np.linalg.norm(np.concatenate([res.x, res.h])) <= 1e-6

    def test_identity_instance_matches_grid_oracle(self, basis8, l1_unit8):
        y = 3.0 * basis8.matrix[0]
        p = Problem("relaxed", identity(8), identity(8), y, 1.0, l1_unit8)
        res = solve_relaxed(p, SolverConfig(tol=1e-13))

        def coord_objective(x0, h0):
            return 0.5 * (x0 - h0) ** 2 + 0.5 * (h0 - 3.0) ** 2 + 0.5 * x0**2 + abs(h0)

        opt = grid_search_2d(coord_objective)
        got = np.array([basis8.decompose(res.x)[0], basis8.decompose(res.h)[0]])
        np.testing.assert_allclose(got, opt, atol=1e-6)
        # stationarity gives exactly (2/3, 4/3)
        np.testing.assert_allclose(got, [2.0 / 3.0, 4.0 / 3.0], atol=1e-9)

    def test_objective_not_above_reference(self, rng):
        for _ in range(5):
            p = random_small_problem(rng)
            res = solve_relaxed(p, SolverConfig())
            ref = exact_minimizer(p, solve(p, TIGHT))
            assert res.objective <= ref.objective + 1e-8

    def test_objective_not_above_zero_start(self, rng):
        for _ in range(5):
            p = random_small_problem(rng)
            res = solve_relaxed(p, SolverConfig())
            zero_obj = objective_relaxed(p, np.zeros(16), np.zeros(16))
            assert res.objective <= zero_obj + 1e-12

    def test_objective_field_consistent(self, rng):
        p = random_small_problem(rng)
        res = solve_relaxed(p, SolverConfig())
        assert res.objective == pytest.approx(
            objective_relaxed(p, res.x, res.h), abs=1e-10
        )

    def test_converged_flag_and_residual(self, rng):
        p = random_small_problem(rng)
        res = solve_relaxed(p, SolverConfig(tol=1e-11))
        assert res.converged
        assert res.fixed_point_residual <= 1e-11

    def test_trace_stream(self, rng):
        p = random_small_problem(rng)
        buf = io.StringIO()
        res = solve_relaxed(p, SolverConfig(max_iters=50), trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,objective,fpr,primal_res,dual_res,rho"
        # one row per iteration; ADMM may stop before max_iters
        assert len(lines) == res.iterations + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        float(first[1])  # objective parses
        residuals = np.array(
            [[float(v) for v in line.split(",")[3:]] for line in lines[1:]]
        )
        assert np.all(np.isfinite(residuals))

    def test_trace_objective_matches_result(self, rng):
        p = random_small_problem(rng)
        buf = io.StringIO()
        res = solve_relaxed(p, SolverConfig(), trace=buf)
        assert res.converged
        assert last_trace_objective(buf) == pytest.approx(res.objective, rel=1e-8)


class TestSolveStrict:
    def test_zero_data(self, basis8, l1_unit8):
        p = Problem("strict", identity(8), identity(8), np.zeros(8), 1.0, l1_unit8)
        res = solve_strict(p, SolverConfig())
        assert np.linalg.norm(res.x) <= 1e-12
        assert np.linalg.norm(res.h) <= 1e-12

    def test_elastic_net_closed_form(self, basis8, l1_unit8):
        # W = A = I reduces to the elastic net; the spike solves
        # min (x-3)^2/2 + x^2/2 + |x| with solution soft(3, 1)/2 = 1
        y = 3.0 * basis8.matrix[0]
        p = Problem("strict", identity(8), identity(8), y, 1.0, l1_unit8)
        res = solve_strict(p, SolverConfig(tol=1e-12))
        coeffs = basis8.decompose(res.x)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(coeffs[1:])) <= 1e-6

    def test_objective_not_above_reference(self, rng):
        for _ in range(5):
            p = random_small_problem(rng, model="strict")
            res = solve_strict(p, SolverConfig())
            ref = exact_minimizer(p, solve(p, TIGHT))
            assert res.objective <= ref.objective + 1e-8

    def test_residuals_below_tol_at_convergence(self, rng):
        p = random_small_problem(rng, model="strict")
        cfg = SolverConfig(tol=1e-10)
        res = solve_strict(p, cfg)
        assert res.converged
        assert res.primal_residual <= cfg.tol
        assert res.dual_residual <= cfg.tol

    def test_matches_dense_enumeration_2d(self):
        # tiny strict instance checked against brute-force enumeration over x
        basis = WaveletBasis(2)
        l1 = WeightedL1(basis)
        w = DenseMap(np.array([[1.0, 0.3], [0.0, 0.8]]))
        a = DenseMap(np.array([[0.9, 0.1], [0.2, 1.1]]))
        y = np.array([1.0, -0.5])
        p = Problem("strict", w, a, y, 0.3, l1)
        res = solve_strict(p, SolverConfig(tol=1e-12))

        def objective(x0, x1):
            x = np.array([x0, x1])
            return objective_relaxed(p, x, w.matrix @ x)

        opt = grid_search_2d(objective, span=3.0)
        assert res.objective <= objective(*opt) + 1e-6
        np.testing.assert_allclose(res.x, opt, atol=1e-4)

    def test_constraint_gap_reported(self, rng):
        # the estimate is h = W x; the split copy Phi* c stays within the
        # primal residual of it
        p = random_small_problem(rng, model="strict")
        res = solve_strict(p, SolverConfig())
        assert np.array_equal(res.h, p.w.matrix @ res.x)
        gap = np.linalg.norm(res.h - p.l1.basis.reconstruct(res.c))
        assert res.primal_residual == pytest.approx(gap, abs=1e-12)

    def test_trace_stream(self, rng):
        p = random_small_problem(rng, model="strict")
        buf = io.StringIO()
        solve_strict(p, SolverConfig(max_iters=40), trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,objective,fpr,primal_res,dual_res,rho"
        assert len(lines) == 41

    def test_trace_objective_matches_result(self, rng):
        p = random_small_problem(rng, model="strict")
        buf = io.StringIO()
        res = solve_strict(p, SolverConfig(), trace=buf)
        assert res.converged
        assert last_trace_objective(buf) == pytest.approx(res.objective, rel=1e-8)


def fixed_problem(model, n, forward="integration"):
    w = IntegrationOp(n) if forward == "integration" else identity(n)
    a = BernoulliSensing(n // 2, n, seed=1)
    l1 = WeightedL1(WaveletBasis(n))
    return Problem(model, w, a, np.ones(n // 2), 0.1, l1)


class TestBlockedCholesky:
    # _whiten's blocked factorization: one block, an exact multiple of the
    # block side, and ragged last blocks
    SIZES = [1, 63, 64, 65, 200]

    @staticmethod
    def spd(n):
        b = np.random.default_rng(n).standard_normal((n, n))
        return b @ b.T + n * np.eye(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_factor_matches_numpy(self, n):
        # whitening the identity gives the inverse factor itself
        a = self.spd(n)
        eye = np.eye(n)
        inv_l = solvers._whiten(a.copy(), eye)
        assert np.all(np.triu(inv_l, 1) == 0.0)
        assert np.linalg.norm(inv_l @ np.linalg.cholesky(a) - eye) <= 1e-12 * n
        assert np.linalg.norm(inv_l.T @ inv_l @ a - eye) <= 1e-12 * n

    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
    @pytest.mark.parametrize("n", SIZES)
    def test_solves_match_numpy(self, n, cols):
        a = self.spd(n)
        shape = (n,) if cols is None else (n, cols)
        b = np.random.default_rng(n + 1).standard_normal(shape)
        got = solvers._whiten(a.copy(), b)
        want = np.linalg.solve(np.linalg.cholesky(a), b)
        assert got.shape == shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_indefinite_in_later_block_raises(self):
        # the leading block is positive definite, the trailing one is not
        n = 2 * solvers._FACTOR_BLOCK + 8
        a = self.spd(n)
        a[-1, -1] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            solvers._whiten(a, np.eye(n))

    def test_lapack_sees_only_narrow_blocks(self, monkeypatch):
        # a strict n=256 solve factors only K, two blocks at m=128, on both
        # CLI W; the closed-form singular basis of the integration matrix
        # calls no eigh, and LAPACK never sees more than _FACTOR_BLOCK rows
        n = 256
        rows = {"cholesky": [], "inv": [], "eigh": []}

        def spy(name):
            call = getattr(np.linalg, name)

            def wrapped(mat):
                rows[name].append(mat.shape[0])
                return call(mat)

            return wrapped

        for name in rows:
            monkeypatch.setattr(np.linalg, name, spy(name))
        for forward in ("integration", "identity"):
            for seen in rows.values():
                seen.clear()
            solve(fixed_problem("strict", n, forward), SolverConfig(max_iters=1))
            assert rows["eigh"] == [], forward
            for name in ("cholesky", "inv"):
                assert len(rows[name]) == (n // 2) // solvers._FACTOR_BLOCK, forward
                assert max(rows[name]) <= solvers._FACTOR_BLOCK


class TestDenseCoupling:
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    @pytest.mark.parametrize("n, block", [(16, 3), (256, None)])
    def test_blocked_build_matches_one_block(
        self, rng, monkeypatch, n, block, model
    ):
        # the factor is built in diagonal blocks: several blocks with a
        # short last one (n=16 by 3), or the default width (n=256); the
        # iterates must follow a factor in one block, and a scale dropped
        # from both builds still fails the optimality check (rho far from 1;
        # strict n=256 needs about 8000 iterations at rho=100)
        if block is not None:
            monkeypatch.setattr(solvers, "_FACTOR_BLOCK", block)
        assert n > solvers._FACTOR_BLOCK
        p = random_small_problem(rng, n=n, m=n // 2, model=model)
        cfg = SolverConfig(rho=100.0)
        blocked = solve(p, cfg)
        monkeypatch.setattr(solvers, "_FACTOR_BLOCK", n)
        one_block = solve(p, cfg)
        assert blocked.converged
        assert natural_residual(p, blocked) <= 1e-8
        assert one_block.iterations == blocked.iterations
        np.testing.assert_allclose(one_block.x, blocked.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(one_block.h, blocked.h, rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "model, n, forward, arrays",
        [
            pytest.param("relaxed", 512, "integration", 2.99, id="relaxed"),
            pytest.param("strict", 512, "integration", 2.99, id="strict"),
            pytest.param("relaxed", 1024, "integration", 2.99, id="relaxed-1024"),
            pytest.param("relaxed", 2048, "integration", 2.99, id="relaxed-2048"),
            pytest.param("strict", 2048, "integration", 2.99, id="strict-2048"),
            pytest.param("relaxed", 2048, "identity", 1.8,
                         id="relaxed-identity-2048"),
            pytest.param("strict", 2048, "identity", 1.8,
                         id="strict-identity-2048"),
        ],
    )
    def test_build_memory(self, model, n, forward, arrays):
        # W is held by its operator, built before the trace starts; with
        # m = n/2 the integration-W solve holds T = Phi U and A U, and its
        # build peaks whitening A U E^-1/2 into the m-by-n P, with K and no
        # n-by-n array (2.95 measured at n=512, 2.80 at 2048); identity W
        # needs neither T nor A U and peaks forming its Q (1.50 measured)
        p = fixed_problem(model, n, forward)
        tracemalloc.start()
        try:
            solve(p, SolverConfig(max_iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * n * n

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_rebuild_memory(self, model):
        # a change of rho drops the old P before building the new one
        # (2.96 measured)
        n = 512
        p = fixed_problem(model, n)
        tracemalloc.start()
        try:
            res = solve(p, SolverConfig(max_iters=solvers._BALANCE_EVERY + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rebuilds == 1
        assert peak <= 3.01 * 8 * n * n


def instance_coupling(p, rho, spectral=None):
    """The v-step map a solve of ``p`` builds at ``rho``, from the instance's
    ``(Phi U, A U, lam)`` and the model's ``g = 1/(lam + eps)``."""
    t, a_u, lam = spectral or solvers._singular_basis(p.w, p.a, p.l1.basis)
    eps = 0.0 if p.model == "strict" else p.alpha
    return solvers._coupling(p, rho, t, a_u, 1.0 / (lam + eps))


class TestUnifiedVStep:
    @pytest.mark.parametrize(
        "forward, m",
        [
            pytest.param("identity", 32, id="identity"),
            pytest.param("integration", 32, id="integration"),
            # through np.linalg.eigh; wide, so x is longer than h
            pytest.param("generic", 32, id="generic"),
            # m >= n: K is wider than the n-by-n system it stands for
            pytest.param("integration", 80, id="tall-a"),
        ],
    )
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_matches_model_normal_equations(self, rng, model, forward, m):
        # the v-step in h alone, from the instance's arrays, solves each
        # model's own v-step system
        n, rho = 64, 3.0
        if forward == "generic":
            w_map = DenseMap(
                np.random.default_rng(5).standard_normal((n, n + 16)) / np.sqrt(n)
            )
        else:
            w_map = IntegrationOp(n) if forward == "integration" else identity(n)
        a_map = BernoulliSensing(m, n, seed=1)
        p = Problem(model, w_map, a_map, np.ones(m), 0.1, WeightedL1(WaveletBasis(n)))
        x_of, fv_of = instance_coupling(p, rho)
        d = rng.standard_normal(n)
        phi = p.l1.basis.matrix
        w = p.w.matrix
        a = p.a.matrix
        eye_x = np.eye(w.shape[1])
        if model == "strict":
            aw = a @ w
            k = aw.T @ aw + rho * w.T @ w + p.alpha * eye_x
            x = np.linalg.solve(k, aw.T @ p.y_delta + rho * (phi @ w).T @ d)
            h = w @ x
        else:
            g = np.block([
                [w.T @ w + p.alpha * eye_x, -w.T],
                [-w, (1.0 + rho) * np.eye(n) + a.T @ a],
            ])
            rhs = np.concatenate(
                [np.zeros(w.shape[1]), a.T @ p.y_delta + rho * phi.T @ d]
            )
            x, h = np.split(np.linalg.solve(g, rhs), [w.shape[1]])
        for got, want in ((fv_of(d), phi @ h), (x_of(d), x)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


    @pytest.mark.parametrize("forward", ["identity", "integration"])
    def test_one_whitening_of_a_symmetric_k(self, monkeypatch, forward):
        # every build whitens once, against an exactly symmetric K, whether
        # the map is then multiplied out (identity W) or kept in factors
        seen = []
        whiten = solvers._whiten

        def spy(mat, rhs):
            seen.append((mat.shape, rhs.shape, np.array_equal(mat, mat.T)))
            return whiten(mat, rhs)

        monkeypatch.setattr(solvers, "_whiten", spy)
        n = 128
        p = fixed_problem("relaxed", n, forward)
        spectral = solvers._singular_basis(p.w, p.a, p.l1.basis)
        for rho in (1.0, 3.0):
            instance_coupling(p, rho, spectral)
        assert seen == [((n // 2, n // 2), (n // 2, n), True)] * 2


class TestStrictNeedsOntoW:
    @staticmethod
    def problem(model, w_mat):
        l1 = WeightedL1(WaveletBasis(16))
        a = BernoulliSensing(8, 16, seed=1)
        return Problem(model, DenseMap(w_mat), a, np.ones(8), 0.1, l1)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 8)], ids=["zero-row", "tall"])
    def test_rank_deficient_w(self, shape):
        w = np.random.default_rng(3).standard_normal(shape)
        if shape[1] == shape[0]:
            w[5] = 0.0
        with pytest.raises(ValueError, match="full row rank"):
            solve(self.problem("strict", w))
        p = self.problem("relaxed", w)
        res = solve(p)
        assert res.converged
        assert natural_residual(p, res) <= 1e-8

    @pytest.mark.parametrize("square, refused", [(1e-14, False), (1e-15, True)])
    def test_refused_at_working_precision(self, square, refused):
        # W W* = diag(1, ..., 1, s^2) is singular to working precision when
        # s^2 <= n eps_mach = 3.6e-15 at n=16; the relaxed model takes it
        w = np.diag(np.r_[np.ones(15), np.sqrt(square)])
        strict = self.problem("strict", w)
        cfg = SolverConfig(max_iters=1)
        if refused:
            with pytest.raises(ValueError, match="full row rank"):
                solve(strict, cfg)
        else:
            solve(strict, cfg)
        solve(self.problem("relaxed", w), cfg)

    def test_wide_w_of_full_row_rank(self):
        w = np.random.default_rng(3).standard_normal((16, 24))
        p = self.problem("strict", w)
        res = solve(p)
        assert res.converged
        assert natural_residual(p, res) <= 1e-8


class TestOptimality:
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_natural_residual(self, rng, model):
        # the KKT residual shares no code with the ADMM loop
        p = random_small_problem(rng, model=model)
        res = solve(p, SolverConfig())
        assert res.converged
        assert natural_residual(p, res) <= 1e-8

    def test_strict_integration_n256_at_defaults(self, rng):
        # at the fixed default rho = 1 this stops unconverged at 20,000
        # iterations; balancing rho reaches the minimizer
        p = random_small_problem(rng, n=256, m=128, model="strict")
        res = solve(p, SolverConfig())
        assert res.converged
        assert natural_residual(p, res) <= 1e-8


class TestRhoBalancing:
    @staticmethod
    def criterion_1_record(delta_index, trial):
        """Relaxed record of the acceptance rate sweep (n=256, seed 178)."""
        _, l1, w, a, _, h_star = certified_identity_instance(256, 128, 8, 178)
        delta = np.logspace(-2, -5, 7)[delta_index]
        seed = SweepConfig(n=256, m=128, sparsity=8, deltas=(1.0,), seed=178)
        noise_seed = seed.noise_seed(delta_index, trial)
        y_delta = add_noise(a.matrix @ h_star, delta, noise_seed)
        return Problem("relaxed", w, a, y_delta, delta, l1)

    def test_cap_bounds_rebuilds(self, monkeypatch):
        p = self.criterion_1_record(2, 1)
        cfg = SolverConfig(rho=0.1, max_iters=30_000)
        assert solve(p, cfg).rebuilds > 2
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 2)
        capped = solve(p, cfg)
        assert capped.converged
        assert capped.rebuilds <= 2
        assert natural_residual(p, capped) <= 1e-8

    def test_cap_zero_keeps_rho(self, monkeypatch):
        p = self.criterion_1_record(2, 1)
        cfg = SolverConfig(rho=0.1, max_iters=200)
        assert solve(p, cfg).rebuilds > 0
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 0)
        pinned = solve(p, cfg)
        assert pinned.rebuilds == 0
        assert pinned.rho == cfg.rho

    def test_step_held_when_a_residual_is_within_tol(self):
        # the strict problems of acceptance criterion 7, at the tests' tight
        # tolerance: a full step on a primal residual at rounding level set
        # rho to 2.6e-7, after which the primal residual stalled at 8e-11
        # for all of max_iters
        rng = np.random.default_rng(7)
        l1 = WeightedL1(WaveletBasis(16))
        draws = [
            (BernoulliSensing(10, 16, seed=int(rng.integers(0, 2**31))),
             rng.standard_normal(10), float(rng.uniform(0.05, 0.5)))
            for _ in range(40)
        ]
        cfg = replace(TIGHT, max_iters=20_000)
        for a, y, alpha in draws[20:]:
            res = solve(Problem("strict", IntegrationOp(16), a, y, alpha, l1), cfg)
            assert res.converged

    def test_chain_on_strict_integration_w(self, monkeypatch):
        # the primal residual of these warm starts is exactly zero while the
        # dual one is large: a rule that skips such checks keeps the first
        # record's rho of 27 and took 3,974 iterations against 770 at fixed
        # rho; stepping back toward cfg.rho undoes it
        cfg = SweepConfig(n=256, m=128, sparsity=8, model="strict",
                          deltas=np.logspace(-2, -5, 7), seed=7)
        l1 = WeightedL1(WaveletBasis(cfg.n))
        w, a = default_operators(cfg)
        phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(),
                               l1.basis, w)
        balanced = run_sweep(cfg, phantom, w, a, l1=l1)
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 0)
        fixed = run_sweep(cfg, phantom, w, a, l1=l1)
        assert balanced.all_converged and fixed.all_converged
        total = sum(r.iterations for r in balanced.records)
        assert total < sum(r.iterations for r in fixed.records)

    def test_warm_start_resumes_at_final_rho(self):
        p = self.criterion_1_record(2, 1)
        first = solve(p, SolverConfig(rho=0.1))
        assert first.rho != 0.1
        again = solve(p, SolverConfig(rho=0.1), warm=first)
        assert again.converged and again.iterations <= 2
        assert again.rho == first.rho and again.rebuilds == 0


def bound_record(trial):
    """The acceptance bound suite's record at delta = 1e-5 (index 6)."""
    basis, l1, w, a, _, h_star = certified_identity_instance(64, 48, 4, 198)
    delta = np.logspace(-2, -5, 7)[-1]
    seed = SweepConfig(n=64, m=48, sparsity=4, deltas=(1.0,), seed=198)
    y_delta = add_noise(a.matrix @ h_star, delta, seed.noise_seed(6, trial))
    return Problem("relaxed", w, a, y_delta, delta, l1)


class TestExactMinimizer:
    @pytest.fixture(scope="class")
    def problem(self):
        return bound_record(0)

    def test_refuses_unconverged_start(self, problem, monkeypatch):
        # at the fixed default rho the default config stops at max_iters with
        # too large a support
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 0)
        start = solve(problem, SolverConfig())
        assert not start.converged
        with pytest.raises(pytest.fail.Exception, match="KKT"):
            exact_minimizer(problem, start)

    def test_verifies_tight_start(self, problem):
        start = solve(problem, TIGHT)
        point = exact_minimizer(problem, start)
        assert natural_residual(problem, point) <= 1e-12
        gap = np.linalg.norm(point.h - start.h)
        assert gap <= 1e-12 * np.linalg.norm(start.h)

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_verifies_default_solve(self, trial):
        # with rho balanced, the default config reaches each cold record's
        # support and signs
        p = bound_record(trial)
        start = solve(p, SolverConfig())
        assert start.converged
        exact_minimizer(p, start)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_names_iteration(self, rng, monkeypatch, model):
        p = random_small_problem(rng, model=model)
        calls = []
        threshold = solvers.soft_threshold

        def nan_at_third(v, t):
            calls.append(1)
            out = threshold(v, t)
            if len(calls) == 3:
                out[0] = np.nan
            return out

        monkeypatch.setattr(solvers, "soft_threshold", nan_at_third)
        with pytest.raises(solvers.SolverError, match="at iteration 3$"):
            solve(p, SolverConfig(max_iters=10, tol=1e-300))


def trace_rows(buf):
    lines = buf.getvalue().strip().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


class TestDualResidualOnDemand:
    # an untraced solve computes the dual residual only on iterations whose
    # primal residual is within tol; a traced one computes it on every
    # iteration, so it is the reference

    @pytest.mark.parametrize("max_iters", [20_000, 50], ids=["converged", "capped"])
    @pytest.mark.parametrize("forward", ["identity", "integration"])
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_untraced_matches_traced(self, model, forward, max_iters):
        p = fixed_problem(model, 64, forward)
        cfg = SolverConfig(rho=10.0, max_iters=max_iters)
        buf = io.StringIO()
        traced = solve(p, cfg, trace=buf)
        untraced = solve(p, cfg)
        assert untraced.converged == traced.converged == (max_iters > 50)
        assert untraced.iterations == traced.iterations
        assert np.array_equal(untraced.x, traced.x)
        assert np.array_equal(untraced.h, traced.h)
        assert untraced.objective == traced.objective
        assert untraced.fixed_point_residual == traced.fixed_point_residual
        for key in ("primal_residual", "dual_residual"):
            assert getattr(untraced, key) == getattr(traced, key)
        if not untraced.converged:
            # the last iteration's primal residual did not call for the
            # dual one, so the loop filled it in after stopping
            assert untraced.primal_residual > cfg.tol
            dual = untraced.dual_residual
            assert np.isfinite(dual)
            assert dual == trace_rows(buf)[-1][4]

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_dual_residual_is_coefficient_step(self, monkeypatch, model):
        # both models split Phi h = c, so the dual residual is the step of c
        # times the rho of its row, and rho changes only after a row that
        # balanced it
        p = fixed_problem(model, 64)
        cfg = SolverConfig(rho=10.0, max_iters=200)
        iterates = [np.zeros(64)]
        threshold = solvers.soft_threshold

        def recording(v, t):
            out = threshold(v, t)
            iterates.append(out)
            return out

        monkeypatch.setattr(solvers, "soft_threshold", recording)
        buf = io.StringIO()
        res = solve(p, cfg, trace=buf)
        rows = trace_rows(buf)
        assert len(rows) == len(iterates) - 1
        for row, c, c_prev in zip(rows, iterates[1:], iterates):
            step = row[5] * np.linalg.norm(c - c_prev)
            assert row[4] == pytest.approx(step, rel=1e-12, abs=1e-300)
        assert rows[0][5] == cfg.rho
        changed = [prev[0] for prev, row in zip(rows, rows[1:])
                   if row[5] != prev[5]]
        assert len(changed) == res.rebuilds
        assert res.rebuilds > 0
        assert all(k % solvers._BALANCE_EVERY == 0 for k in changed)


class TestWarmStart:
    MODELS = pytest.mark.parametrize("model", ["relaxed", "strict"])
    FORWARDS = pytest.mark.parametrize("forward", ["identity", "integration"])

    @FORWARDS
    @MODELS
    def test_restart_from_own_result(self, model, forward):
        p = fixed_problem(model, 64, forward)
        cfg = SolverConfig()
        first = solve(p, cfg)
        again = solve(p, cfg, warm=first)
        assert first.converged and again.converged
        assert again.iterations <= 2
        assert np.max(np.abs(again.h - first.h)) <= 1e-9
        # the estimate of h* = W x*: Phi* c relaxed, W x strict
        estimate = (p.l1.basis.reconstruct(again.c) if model == "relaxed"
                    else p.w.matrix @ again.x)
        assert np.array_equal(again.h, estimate)

    @FORWARDS
    @MODELS
    def test_multiplier_does_not_depend_on_rho(self, model, forward):
        # the state carries rho u and the final rho, so a start from a solve
        # begun at another rho is still near the end
        p = fixed_problem(model, 64, forward)
        first = solve(p, SolverConfig(rho=1.0))
        cfg = SolverConfig(rho=10.0)
        warm = solve(p, cfg, warm=first)
        cold = solve(p, cfg)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations / 10

    @MODELS
    def test_bad_state_raises(self, model):
        p = fixed_problem(model, 64)
        res = solve(p, SolverConfig(max_iters=20))
        nan_c = res.c.copy()
        nan_c[3] = np.nan
        inf_m = res.multiplier.copy()
        inf_m[0] = np.inf
        for bad in (
            replace(res, c=res.c[:32]),
            replace(res, multiplier=np.zeros(65)),
            replace(res, c=nan_c),
            replace(res, multiplier=inf_m),
        ):
            with pytest.raises(ValueError, match="warm start"):
                solve(p, SolverConfig(), warm=bad)

    @MODELS
    def test_none_is_the_cold_start(self, model):
        p = fixed_problem(model, 64, "identity")
        cfg = SolverConfig(rho=10.0)
        plain = solve(p, cfg)
        cold = solve(p, cfg, warm=None)
        for name in ("x", "h", "c", "multiplier"):
            assert np.array_equal(getattr(plain, name), getattr(cold, name))
        for name in ("objective", "iterations", "primal_residual",
                     "dual_residual", "fixed_point_residual", "converged"):
            assert getattr(plain, name) == getattr(cold, name)

    @MODELS
    def test_trace_counts_from_one(self, model, monkeypatch):
        # at a fixed rho the nearby start saves iterations; with rho balanced
        # the strict warm start takes more than the cold one; the active set
        # is off, since it finishes this start with no iteration
        monkeypatch.setattr(solvers, "_MAX_REBUILDS", 0)
        monkeypatch.setattr(solvers, "_MAX_ACTIVE_SET_STEPS", 0)
        p = fixed_problem(model, 64, "identity")
        cfg = SolverConfig()
        nearby = solve(replace(p, alpha=0.2), cfg)
        buf = io.StringIO()
        res = solve(p, cfg, trace=buf, warm=nearby)
        rows = trace_rows(buf)
        assert [row[0] for row in rows] == list(range(1, res.iterations + 1))
        assert 1 < res.iterations < solve(p, cfg).iterations


def chained_solves(monkeypatch, cfg, solver_cfg):
    """``(problem, warm, result)`` of every chained record of ``cfg``'s
    sweep on identity ``W``."""
    l1 = WeightedL1(WaveletBasis(cfg.n))
    w, a = default_operators(cfg, forward="identity")
    phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(), l1.basis, w)
    seen = []

    def spy(p, scfg, trace=None, warm=None):
        res = solve(p, scfg, trace, warm)
        seen.append((p, warm, res))
        return res

    monkeypatch.setattr(experiments, "solve", spy)
    assert run_sweep(cfg, phantom, w, a, l1=l1, solver_cfg=solver_cfg).all_converged
    return [(p, warm, res) for p, warm, res in seen if warm is not None]


def admm_only(monkeypatch, p, cfg, warm):
    """The warm solve with the active set switched off: ADMM from ``warm``."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_MAX_ACTIVE_SET_STEPS", 0)
        return solve(p, cfg, warm=warm)


def assert_same_bits(got, want):
    for name in ("x", "h", "c", "multiplier"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("objective", "iterations", "primal_residual", "dual_residual",
                 "rho", "rebuilds", "active_set_steps", "converged"):
        assert getattr(got, name) == getattr(want, name), name


class TestActiveSetFinish:
    # a warm solve first takes active-set steps from the support and signs of
    # warm.c and keeps their point only when it verifies; the checks here use
    # the tests' own dense KKT residual and exact minimizer
    SWEEPS = {
        "sweep_relaxed_n64": (
            SweepConfig(n=64, m=48, sparsity=4, deltas=np.logspace(-2, -5, 7),
                        trials=3, seed=198),
            SolverConfig(max_iters=30_000),
        ),
        "criterion_2": (
            SweepConfig(n=256, m=128, sparsity=8, deltas=np.logspace(-2, -5, 7),
                        model="strict", trials=3, seed=178),
            SolverConfig(rho=1.0, max_iters=40_000),
        ),
    }

    @pytest.mark.parametrize("sweep", list(SWEEPS))
    def test_finishes_every_chained_record(self, monkeypatch, sweep):
        cfg, solver_cfg = self.SWEEPS[sweep]
        chained = chained_solves(monkeypatch, cfg, solver_cfg)
        assert len(chained) == (len(cfg.deltas) - 1) * cfg.trials
        for p, warm, res in chained:
            assert res.converged and res.active_set_steps > 0
            assert res.iterations == res.rebuilds == 0
            assert res.rho == warm.rho
            assert natural_residual(p, res) <= 1e-12
            point = exact_minimizer(p, res)
            assert np.max(np.abs(point.h - res.h)) <= 1e-12 * np.max(np.abs(res.h))
            assert point.objective == pytest.approx(res.objective, rel=1e-12)

    def test_result_is_a_primal_dual_pair(self, monkeypatch):
        # c is exactly sparse and the multiplier is the dual r = b - H c:
        # alpha kappa sign(c) on the support, to rounding relative to
        # ||b||_inf with b = Phi A* y, and within the box off it
        cfg, solver_cfg = self.SWEEPS["sweep_relaxed_n64"]
        p, _, res = chained_solves(monkeypatch, cfg, solver_cfg)[-1]
        on = res.c != 0
        level = p.alpha * p.l1.kappa
        scale = np.max(np.abs(p.l1.basis.decompose(p.a.matrix.T @ p.y_delta)))
        assert 0 < on.sum() < len(on)
        gap = res.multiplier[on] - level[on] * np.sign(res.c[on])
        assert np.max(np.abs(gap)) <= 1e-12 * scale
        assert np.all(np.abs(res.multiplier[~on]) <= level[~on])
        assert np.array_equal(res.h, p.l1.basis.reconstruct(res.c))
        again = admm_only(monkeypatch, p, solver_cfg, res)
        assert again.converged and again.iterations <= 2

    def test_wide_support_falls_back(self, monkeypatch):
        # the kappa = 1 integration instance: the previous record's support
        # is wider than _FACTOR_BLOCK, so ADMM runs from it as without the
        # finish
        cfg = SweepConfig(n=256, m=128, sparsity=8, deltas=(1e-2, 1e-3), seed=7)
        l1 = WeightedL1(WaveletBasis(cfg.n))
        w, a = default_operators(cfg)
        phantom = make_phantom(cfg.n, cfg.sparsity, cfg.phantom_seed(), l1.basis, w)
        first, second = (
            Problem("relaxed", w, a, add_noise(a.matrix @ phantom.h_star, delta,
                                               cfg.noise_seed(i, 0)), delta, l1)
            for i, delta in enumerate(cfg.deltas)
        )
        warm = solve(first)
        assert np.count_nonzero(warm.c) > solvers._FACTOR_BLOCK
        res = solve(second, warm=warm)
        assert res.converged and res.iterations > 0
        assert_same_bits(res, admm_only(monkeypatch, second, SolverConfig(), warm))

    def test_failed_check_falls_back(self, monkeypatch):
        cfg, solver_cfg = self.SWEEPS["sweep_relaxed_n64"]
        p, warm, finished = chained_solves(monkeypatch, cfg, solver_cfg)[0]
        checked = []

        def failing(problem, result):
            checked.append(result)
            return np.inf

        monkeypatch.setattr(solvers, "kkt_residual", failing)
        res = solve(p, solver_cfg, warm=warm)
        assert [r.active_set_steps for r in checked] == [finished.active_set_steps]
        assert res.converged and res.iterations > 0
        assert_same_bits(res, admm_only(monkeypatch, p, solver_cfg, warm))

    def test_cycle_falls_back(self, monkeypatch):
        # from c = e_0 on this underdetermined instance the steps alternate
        # between two active sets
        l1 = WeightedL1(WaveletBasis(8))
        p = Problem("relaxed", identity(8), BernoulliSensing(3, 8, seed=0),
                    np.array([1.0, 2.0, 3.0]), 0.1, l1)
        cfg = SolverConfig()
        start = np.zeros(8)
        start[0] = 1.0
        warm = replace(solve(p, cfg), c=start, multiplier=np.zeros(8), rho=1.0)
        steps = []
        hess = solvers._hess

        def counting(*args):
            steps.append(1)
            return hess(*args)

        monkeypatch.setattr(solvers, "_hess", counting)
        res = solve(p, cfg, warm=warm)
        # one product per step, none for a check: the steps stopped early
        assert 2 < len(steps) < solvers._MAX_ACTIVE_SET_STEPS
        assert res.converged and res.iterations > 0 and res.active_set_steps == 0
        assert_same_bits(res, admm_only(monkeypatch, p, cfg, warm))

    def test_step_cap_falls_back(self, monkeypatch):
        cfg, solver_cfg = self.SWEEPS["sweep_relaxed_n64"]
        p, warm, finished = chained_solves(monkeypatch, cfg, solver_cfg)[0]
        assert finished.active_set_steps > 1
        monkeypatch.setattr(solvers, "_MAX_ACTIVE_SET_STEPS",
                            finished.active_set_steps - 1)
        res = solve(p, solver_cfg, warm=warm)
        assert res.active_set_steps == 0 and res.iterations > 0
        assert_same_bits(res, admm_only(monkeypatch, p, solver_cfg, warm))

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_traced_matches_untraced(self, model):
        p = fixed_problem(model, 64)
        cfg = SolverConfig()
        warm = solve(replace(p, alpha=0.11), cfg)
        buf = io.StringIO()
        traced = solve(p, cfg, trace=buf, warm=warm)
        assert traced.active_set_steps > 0
        assert buf.getvalue() == "iter,objective,fpr,primal_res,dual_res,rho\n"
        assert_same_bits(traced, solve(p, cfg, warm=warm))


class TestKktResidual:
    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_zero_point(self, model):
        # at c = 0 the dual is b = Phi A* y, so the residual is
        # (||b||_inf - alpha)/||b||_inf at unit weights when alpha < ||b||_inf
        p = fixed_problem(model, 64)
        res = replace(solve(p, SolverConfig(max_iters=1)), c=np.zeros(64))
        b = np.max(np.abs(p.l1.basis.decompose(p.a.matrix.T @ p.y_delta)))
        assert p.alpha < b
        assert solvers.kkt_residual(p, res) == pytest.approx((b - p.alpha) / b,
                                                             rel=1e-12)

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_separates_admm_from_exact_points(self, model):
        p = fixed_problem(model, 64)
        cfg = SolverConfig()
        early = solve(p, SolverConfig(max_iters=20))
        exact = solve(p, cfg, warm=solve(replace(p, alpha=0.11), cfg))
        assert exact.active_set_steps > 0
        assert solvers.kkt_residual(p, exact) <= 1e-12
        assert solvers.kkt_residual(p, early) > 1e-6

    @pytest.mark.parametrize("model", ["relaxed", "strict"])
    def test_matches_dense_formula(self, model):
        # r = b - H c from dense matrices, with b = Phi A* y and
        # H = Phi (A*A + alpha G^-1) Phi*, at an early ADMM point and at the
        # exact point with one coefficient of its support moved by 1e-6
        p = fixed_problem(model, 64)
        cfg = SolverConfig()
        exact = solve(p, cfg, warm=solve(replace(p, alpha=0.11), cfg))
        moved = exact.c.copy()
        lam = np.flatnonzero(moved)[0]
        moved[lam] *= 1 + 1e-6
        phi = p.l1.basis.matrix
        w, a = p.w.matrix, p.a.matrix
        g = w @ w.T + (p.alpha * np.eye(64) if model == "relaxed" else 0.0)
        hess = phi @ (a.T @ a + p.alpha * np.linalg.inv(g)) @ phi.T
        b = phi @ (a.T @ p.y_delta)
        level = p.alpha * p.l1.kappa
        for c in (solve(p, SolverConfig(max_iters=20)).c, moved):
            r = b - hess @ c
            on = c != 0
            want = max(np.max(np.abs(r[on] - level[on] * np.sign(c[on]))),
                       np.max(np.maximum(np.abs(r[~on]) - level[~on], 0.0)))
            got = solvers.kkt_residual(p, replace(exact, c=c))
            assert got == pytest.approx(want / np.max(np.abs(b)), rel=1e-6)
