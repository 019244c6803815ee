"""Cross-checks of the ADMM solves of both models against an external convex solver."""

import numpy as np
import pytest

cvxpy = pytest.importorskip("cvxpy")

from l1coreg.basis import WaveletBasis
from l1coreg.operators import BernoulliSensing, IntegrationOp
from l1coreg.regularizers import WeightedL1
from l1coreg.solvers import Problem, SolverConfig, solve_relaxed, solve_strict


def build_problem(seed, n=16, m=10, alpha=0.2):
    rng = np.random.default_rng(seed)
    basis = WaveletBasis(n)
    kappa = rng.uniform(0.5, 1.5, n)
    l1 = WeightedL1(basis, kappa)
    w = IntegrationOp(n)
    a = BernoulliSensing(m, n, seed=seed)
    y = rng.standard_normal(m)
    return basis, l1, w, a, y, alpha, kappa


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_matches_cvxpy(seed):
    basis, l1, w, a, y, alpha, kappa = build_problem(seed)
    n = basis.n
    w_mat = w.matrix
    a_mat = a.matrix
    synth = np.column_stack([basis.matrix[j] for j in range(n)])

    x = cvxpy.Variable(n)
    c = cvxpy.Variable(n)  # wavelet coefficients of h
    h = synth @ c
    objective = (
        0.5 * cvxpy.sum_squares(w_mat @ x - h)
        + 0.5 * cvxpy.sum_squares(a_mat @ h - y)
        + alpha * (0.5 * cvxpy.sum_squares(x) + cvxpy.norm1(cvxpy.multiply(kappa, c)))
    )
    cvxpy.Problem(cvxpy.Minimize(objective)).solve(solver=cvxpy.CLARABEL)
    external = float(objective.value)

    p = Problem("relaxed", w, a, y, alpha, l1)
    res = solve_relaxed(p, SolverConfig(tol=1e-12))
    assert res.objective <= external + 1e-6
    assert external <= res.objective + 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strict_matches_cvxpy(seed):
    basis, l1, w, a, y, alpha, kappa = build_problem(seed)
    n = basis.n
    w_mat = w.matrix
    a_mat = a.matrix
    analysis = np.column_stack([basis.matrix[j] for j in range(n)]).T

    x = cvxpy.Variable(n)
    objective = 0.5 * cvxpy.sum_squares(a_mat @ w_mat @ x - y) + alpha * (
        0.5 * cvxpy.sum_squares(x)
        + cvxpy.norm1(cvxpy.multiply(kappa, analysis @ w_mat @ x))
    )
    cvxpy.Problem(cvxpy.Minimize(objective)).solve(solver=cvxpy.CLARABEL)
    external = float(objective.value)

    p = Problem("strict", w, a, y, alpha, l1)
    res = solve_strict(p, SolverConfig(tol=1e-12))
    assert res.objective <= external + 1e-6
    assert external <= res.objective + 1e-6
