"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The rate-reproduction and bound-suite instances use the identity forward
operator with Bernoulli 0/1 sensing: at these sizes and unit weights that is
the configuration whose source condition verifiably holds (the certificate
search succeeds), which the linear-rate statements require.  All seeds are
fixed below.
"""

import numpy as np
import pytest

from conftest import (
    TIGHT,
    check_variational_bounds,
    coupling_map,
    exact_minimizer,
    natural_residual,
    subgradient_at,
)
from l1coreg.basis import WaveletBasis
from l1coreg.certificates import (
    check_restricted_injectivity,
    check_norm_bound,
    find_certificate_relaxed,
    rate_constants,
)
from l1coreg.cli import main as cli_main
from l1coreg.experiments import (
    SweepConfig,
    add_noise,
    determinism_hash,
    make_phantom,
    run_sweep,
)
from l1coreg.operators import (
    BernoulliSensing,
    IntegrationOp,
    identity,
    operator_norm,
)
from l1coreg.regularizers import (
    WeightedL1,
    bregman_l1,
    soft_threshold,
)
from l1coreg.solvers import (
    Problem,
    SolverConfig,
    solve,
    solve_strict,
)

RATE_SEED = 178       # N=256 instance whose certificate search succeeds
BOUND_SEED = 198      # N=64 certified instance for the bound suites
DELTAS = tuple(np.logspace(-2, -5, 7))

RELAXED_SWEEP_CFG = SolverConfig(rho=0.1, max_iters=30_000)
STRICT_SWEEP_CFG = SolverConfig(rho=1.0, max_iters=40_000)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def build_instance(n, m, sparsity, seed):
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    w = identity(n)
    cfg = SweepConfig(n=n, m=m, sparsity=sparsity, deltas=DELTAS,
                      trials=3, seed=seed)
    a = BernoulliSensing(m, n, seed=cfg.matrix_seed())
    phantom = make_phantom(n, sparsity, cfg.phantom_seed(), basis, w)
    return basis, l1, w, a, phantom, cfg


@pytest.fixture(scope="module")
def rate_instance():
    return build_instance(256, 128, 8, RATE_SEED)


@pytest.fixture(scope="module")
def certified_instance():
    basis, l1, w, a, phantom, cfg = build_instance(64, 48, 4, BOUND_SEED)
    cert = find_certificate_relaxed(w, a, basis, l1, phantom.x_star)
    assert cert.valid and cert.strict_complementarity
    inj = check_restricted_injectivity(a, basis, cert.eta.omega)
    assert inj.injective
    constants = rate_constants(cert, inj, big_c=1.0)
    return basis, l1, w, a, phantom, cfg, cert, inj, constants


@pytest.fixture(scope="module")
def certified_reference_records(certified_instance):
    """21 accurate relaxed solves on the certified instance.

    The solves run at residuals 1e-14 (:data:`conftest.TIGHT`) from the
    default starting penalty ``rho = 1``; each record keeps its natural
    residual.
    """
    basis, l1, w, a, phantom, cfg, cert, inj, constants = certified_instance
    y_star = a.matrix @ phantom.h_star
    records = []
    for i, delta in enumerate(cfg.deltas):
        for t in range(cfg.trials):
            y_delta = add_noise(y_star, delta, cfg.noise_seed(i, t))
            alpha = constants.big_c * delta
            problem = Problem("relaxed", w, a, y_delta, alpha, l1)
            res = solve(problem, TIGHT)
            assert res.converged
            records.append({
                "delta": delta, "alpha": alpha, "y_delta": y_delta, "res": res,
                "kkt": natural_residual(problem, res),
            })
    return records


def assert_records_optimal(records):
    # the bounds concern exact minimizers, so every input must verify as one
    worst = max(rec["kkt"] for rec in records)
    assert worst <= 1e-12, f"natural residual {worst:.1e} > 1e-12"


def test_criterion_1_rate_relaxed(rate_instance):
    basis, l1, w, a, phantom, cfg = rate_instance
    result = run_sweep(cfg, phantom, w, a, l1=l1, solver_cfg=RELAXED_SWEEP_CFG)
    ok = (
        result.all_converged
        and 0.85 <= result.fit.slope <= 1.15
        and result.fit.r_squared >= 0.98
        and result.wall_time <= 300.0
    )
    report(
        1,
        ok,
        f"relaxed rate: slope={result.fit.slope:.4f} in [0.85, 1.15], "
        f"r2={result.fit.r_squared:.5f} >= 0.98, "
        f"converged={result.all_converged}, {result.wall_time:.0f}s <= 300s",
    )


def test_criterion_2_rate_strict(rate_instance):
    basis, l1, w, a, phantom, cfg = rate_instance
    cfg_strict = SweepConfig(
        n=cfg.n, m=cfg.m, sparsity=cfg.sparsity, deltas=cfg.deltas,
        big_c=cfg.big_c, model="strict", trials=cfg.trials, seed=cfg.seed,
    )
    result = run_sweep(
        cfg_strict, phantom, w, a, l1=l1, solver_cfg=STRICT_SWEEP_CFG
    )
    ok = (
        result.all_converged
        and 0.85 <= result.fit.slope <= 1.15
        and result.fit.r_squared >= 0.98
    )
    report(
        2,
        ok,
        f"strict rate: slope={result.fit.slope:.4f} in [0.85, 1.15], "
        f"r2={result.fit.r_squared:.5f} >= 0.98, converged={result.all_converged}",
    )


def test_criterion_3_rate_bound_suite(certified_instance, certified_reference_records):
    basis, l1, w, a, phantom, cfg, cert, inj, constants = certified_instance
    assert_records_optimal(certified_reference_records)
    violations = 0
    for rec in certified_reference_records:
        res = rec["res"]
        delta = rec["delta"]
        breg = 0.5 * float(np.linalg.norm(res.x - phantom.x_star) ** 2)
        err_h = float(np.linalg.norm(res.h - phantom.h_star))
        if breg > constants.c * delta * (1 + 1e-6) + 1e-10:
            violations += 1
        if err_h > constants.d * delta * (1 + 1e-6) + 1e-10:
            violations += 1
    ok = violations == 0 and len(certified_reference_records) >= 21
    report(
        3,
        ok,
        f"linear error bounds on certified N=64 instance: {violations} violations "
        f"over {len(certified_reference_records)} records "
        f"(c={constants.c:.3f}, d={constants.d:.3f})",
    )


def test_criterion_4_variational_bounds(certified_instance, certified_reference_records):
    basis, l1, w, a, phantom, cfg, cert, inj, constants = certified_instance
    assert_records_optimal(certified_reference_records)
    m_op = coupling_map(w, a)
    xi = w.matrix.T @ cert.u
    source = np.concatenate([cert.u, cert.v])
    y_star_prod = np.concatenate([np.zeros(cfg.n), a.matrix @ phantom.h_star])
    failures = 0
    for rec in certified_reference_records:
        res = rec["res"]
        y_delta_prod = np.concatenate([np.zeros(cfg.n), rec["y_delta"]])
        x, x_star = res.x, phantom.x_star
        breg_x = 0.5 * float(x @ x) - 0.5 * float(x_star @ x_star)
        breg_x -= float(xi @ (x - x_star))
        breg = breg_x + bregman_l1(l1, cert.eta, res.h, phantom.h_star)
        rep = check_variational_bounds(
            m_op,
            source,
            np.concatenate([res.x, res.h]),
            y_delta_prod,
            y_star_prod,
            rec["alpha"],
            breg,
        )
        if not rep.all_ok:
            failures += 1
    ok = failures == 0
    report(
        4,
        ok,
        f"residual and Bregman bounds hold at every sweep point: "
        f"{failures} failures over {len(certified_reference_records)} records",
    )


def test_criterion_5_norm_bound_randomized():
    n = 32
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    rng = np.random.default_rng(5)
    checked = 0
    violations = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        m = int(rng.integers(12, 28))
        a = BernoulliSensing(m, n, seed=int(rng.integers(0, 2**31)))
        omega = sorted(rng.choice(n, size=int(rng.integers(1, 5)),
                                  replace=False).tolist())
        inj = check_restricted_injectivity(a, basis, omega)
        if not inj.injective:
            continue
        c_star = np.zeros(n)
        c_star[omega] = rng.uniform(0.5, 1.5, len(omega)) * rng.choice(
            [-1, 1], len(omega)
        )
        h_star = basis.reconstruct(c_star)
        sg = subgradient_at(l1, h_star)
        use_eta = set(sg.omega) == set(omega)
        h = h_star + rng.uniform(0.1, 2.0) * rng.standard_normal(n)
        rep = check_norm_bound(
            a, basis, h, h_star, inj,
            eta=sg if use_eta else None, l1=l1 if use_eta else None,
        )
        checked += 1
        if not rep.l1_ok:
            violations += 1
        if rep.bregman_ok is False:
            violations += 1
    ok = checked >= 100 and violations == 0
    report(
        5,
        ok,
        f"restricted-injectivity norm bounds: {violations} violations over "
        f"{checked} randomized instances",
    )


def test_criterion_6_subgradient_lower_bound():
    n = 32
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(100):
        support = sorted(rng.choice(n, size=3, replace=False).tolist())
        c_star = np.zeros(n)
        c_star[support] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)
        h_star = basis.reconstruct(c_star)
        fill = rng.uniform(-0.9, 0.9, n)
        fill[support] = 0.0
        sg = subgradient_at(l1, h_star, fill)
        h = rng.uniform(0.5, 3.0) * rng.standard_normal(n)
        lhs = bregman_l1(l1, sg, h, h_star)
        off = [i for i in range(n) if i not in sg.omega]
        rhs = sg.margin * float(np.sum(np.abs(basis.decompose(h)[off])))
        if lhs < rhs - 1e-12:
            violations += 1
    ok = violations == 0
    report(6, ok, f"subgradient lower bound: {violations} violations over 100 pairs")


def test_criterion_7_solver_correctness():
    rng = np.random.default_rng(7)
    n, m = 16, 10
    basis = WaveletBasis(n)
    l1 = WeightedL1(basis)
    worst_gap = 0.0
    for model in ("relaxed", "strict"):
        for _ in range(20):
            w = IntegrationOp(n)
            a = BernoulliSensing(m, n, seed=int(rng.integers(0, 2**31)))
            y = rng.standard_normal(m)
            alpha = float(rng.uniform(0.05, 0.5))
            p = Problem(model, w, a, y, alpha, l1)
            res = solve(p, SolverConfig())
            ref = exact_minimizer(p, solve(p, TIGHT))
            worst_gap = max(worst_gap, res.objective - ref.objective)
    basis8 = WaveletBasis(8)
    l18 = WeightedL1(basis8)
    y = 3.0 * basis8.matrix[0]
    res = solve_strict(
        Problem("strict", identity(8), identity(8), y, 1.0, l18),
        SolverConfig(tol=1e-12),
    )
    enet_err = abs(basis8.decompose(res.x)[0] - 1.0)
    ok = worst_gap <= 1e-8 and enet_err <= 1e-6
    report(
        7,
        ok,
        f"solver correctness: worst objective gap {worst_gap:.2e} <= 1e-8 to "
        f"verified exact minimizers over 40 instances; elastic-net spike off "
        f"by {enet_err:.2e} <= 1e-6",
    )


def test_criterion_8_numerical_kernels():
    rng = np.random.default_rng(8)
    # adjoint identities across every operator kind
    n, m = 16, 8
    mats = [
        rng.standard_normal((5, 3)),
        IntegrationOp(n).matrix,
        BernoulliSensing(m, n, seed=3).matrix,
    ]
    adjoint_ok = True
    for mat in mats:
        norm = operator_norm(mat)
        for _ in range(100):
            x = rng.standard_normal(mat.shape[1])
            y = rng.standard_normal(mat.shape[0])
            gap = abs(float((mat @ x) @ y) - float(x @ (mat.T @ y)))
            if gap > 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) * max(norm, 1e-30):
                adjoint_ok = False

    wavelet_ok = True
    for size in (8, 64, 256, 1024):
        b = WaveletBasis(size)
        for _ in range(10):
            h = rng.standard_normal(size)
            c = b.decompose(h)
            if np.linalg.norm(b.reconstruct(c) - h) > 1e-10 * max(
                1.0, np.linalg.norm(h)
            ):
                wavelet_ok = False
            if abs(np.linalg.norm(c) - np.linalg.norm(h)) > 1e-10:
                wavelet_ok = False

    # the prox of t*||.||_{1,kappa} in coefficients: the solvers' c-step
    prox_ok = True
    kappa = rng.uniform(0.5, 2.0, 16)
    grid = np.arange(-5.0, 5.0, 1e-4)
    for _ in range(50):
        c = rng.standard_normal(16)
        t = float(rng.uniform(0.1, 2.0))
        out = soft_threshold(c, t * kappa)
        for lam in range(16):
            best = grid[
                int(np.argmin(0.5 * (grid - c[lam]) ** 2 + t * kappa[lam] * np.abs(grid)))
            ]
            got_obj = 0.5 * (out[lam] - c[lam]) ** 2 + t * kappa[lam] * abs(out[lam])
            best_obj = 0.5 * (best - c[lam]) ** 2 + t * kappa[lam] * abs(best)
            if got_obj > best_obj + 1e-3:
                prox_ok = False
    ok = adjoint_ok and wavelet_ok and prox_ok
    report(
        8,
        ok,
        f"numerical kernels: adjoints={adjoint_ok}, "
        f"wavelet reconstruction/Parseval={wavelet_ok}, prox-vs-grid={prox_ok}",
    )


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    args = [
        "sweep", "--model", "relaxed", "--n", "32", "--m", "24",
        "--sparsity", "2", "--seed", "1", "--forward", "identity",
        "--deltas", "1e-2,1e-3,1e-4", "--trials", "2",
    ]
    hashes = []
    for name in ("first.csv", "second.csv"):
        rc = cli_main(args + ["--out", str(tmp_path / name)])
        assert rc == 0
        hashes.append(determinism_hash((tmp_path / name).read_text()))
    capsys.readouterr()
    ok = hashes[0] == hashes[1]
    report(9, ok, f"identical sweep invocations hash to {hashes[0][:16]}... twice")


def test_criterion_10_certificate_engine():
    basis = WaveletBasis(8)
    l1 = WeightedL1(basis)
    x_star = basis.matrix[0]
    cert = find_certificate_relaxed(identity(8), identity(8), basis, l1, x_star)
    inj = check_restricted_injectivity(identity(8), basis, cert.eta.omega)
    hand_ok = (
        cert.valid
        and abs(cert.saturation_margin - 1.0) <= 1e-10
        and abs(inj.sigma_min - 1.0) <= 1e-10
    )

    # more support indices than measurements can never be injective
    a_small = BernoulliSensing(2, 32, seed=1)
    basis32 = WaveletBasis(32)
    inj_fail = check_restricted_injectivity(a_small, basis32, [0, 1, 2, 3])
    ok = hand_ok and not inj_fail.injective
    report(
        10,
        ok,
        f"certificate engine: identity instance margin={cert.saturation_margin:.6f}, "
        f"sigma_min={inj.sigma_min:.6f}; oversized support non-injective="
        f"{not inj_fail.injective}",
    )
