"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line.  Heavy
shared experiments are computed once in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from conftest import make_cfg
from ringadmm import adversary
from ringadmm.cli import main as cli_main
from ringadmm.harness import build_problem
from ringadmm.linalg import SparseSystem, lsqr
from ringadmm.objectives import (
    LogisticObjective,
    RidgeObjective,
    generate_logistic_data,
    generate_ridge_data,
)
from ringadmm.solver import (
    GammaSpec,
    InitSpec,
    Simulation,
    Variant,
    gamma_lower_bound,
    kkt_residuals,
    run,
    token_gap,
)


def report(num: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_convergence_ridge_exact_prox():
    cfg = make_cfg(n_agents=20, eta=0.3, rho=10.0, max_iters=500 * 20,
                   stop_eps=1e-10)
    cfg.seed_graph, cfg.seed_data, cfg.seed_solver = 0, 100, 200
    t0 = time.perf_counter()
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    elapsed = time.perf_counter() - t0
    acc = res.trace.final.accuracy
    kkt = kkt_residuals(problem.objectives, res.x, res.y, res.z)
    ok = acc < 1e-8 and all(r < 1e-6 for r in kkt) and elapsed < 5.0
    assert report(
        "01", ok,
        f"accuracy {acc:.2e} < 1e-8 in <=500 cycles; kkt {max(kkt):.2e} < 1e-6; "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_02_fixed_step_descent_regime():
    cfg = make_cfg(n_agents=4, eta=1.0, max_iters=4 * 200)
    cfg.seed_graph, cfg.seed_data, cfg.seed_solver = 0, 50, 99
    graph, problem = build_problem(cfg)
    sc = cfg
    sc.rho = 2.0 * problem.lipschitz() + 2.0
    res = run(problem, graph, sc)
    worst = float(np.max(np.diff(res.trace.lagrangians())))
    ok = worst <= 1e-12
    assert report(
        "02", ok,
        f"rho=2L+2: max per-step Lagrangian increase {worst:.2e} <= 1e-12 "
        f"over 200 cycles",
    )


def test_criterion_03_perturbed_step_descent_regime():
    cfg = make_cfg(n_agents=5, eta=1.0, variant=Variant.PIADMM1,
                   init=InitSpec.uniform(0, 0.01), gamma=GammaSpec.floor(1.01),
                   max_iters=12_000)
    graph, problem = build_problem(cfg)
    lips = problem.lipschitz()
    sc = cfg
    sc.rho = lips + 1.0
    res = run(problem, graph, sc)
    lag = res.trace.lagrangians()
    f_star = sum(f.value(problem.x_star) for f in problem.objectives)
    kkt = kkt_residuals(problem.objectives, res.x, res.y, res.z)
    worst_inc = float(np.max(np.diff(lag)))
    floor = gamma_lower_bound(sc.rho, lips, 5)
    ok = worst_inc <= 1e-12 and bool(np.all(lag >= f_star - 1e-9)) and max(kkt) < 1e-6
    assert report(
        "03", ok,
        f"rho=L+1, gamma=1.01*{floor:.1f}: max increase {worst_inc:.2e} <= 1e-12, "
        f"Lagrangian >= F* - 1e-9, kkt {max(kkt):.2e} < 1e-6",
    )


def test_criterion_04_token_conservation_all_variants():
    settings = [
        (Variant.IADMM, InitSpec.zeros(), GammaSpec.constant(1.0), 0.0),
        (Variant.IADMM_RANDINIT, InitSpec.uniform(0, 100), GammaSpec.constant(1.0), 0.0),
        (Variant.PIADMM1, InitSpec.uniform(0, 100), GammaSpec.uniform(0.9, 1.1), 0.0),
        (Variant.PIADMM2, InitSpec.uniform(0, 100), GammaSpec.constant(1.0), 1e-3),
        (Variant.WADMM_BASELINE, InitSpec.zeros(), GammaSpec.constant(1.0), 0.0),
    ]
    worst = 0.0
    for variant, init, gamma, sigma in settings:
        for seed in range(10):
            cfg = make_cfg(n_agents=10, eta=0.4, variant=variant, init=init,
                           gamma=gamma, sigma=sigma, max_iters=100 * 10)
            cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 31, seed + 62
            graph, problem = build_problem(cfg)
            sim = Simulation(problem, graph, cfg)
            for _ in range(cfg.max_iters):
                sim.step()
                worst = max(worst, token_gap(sim.x, sim.y, sim.z, cfg.rho))
    ok = worst <= 1e-10
    assert report(
        "04", ok,
        f"token vs full average: worst gap {worst:.2e} <= 1e-10 "
        f"(5 variants x 10 seeds x 100 cycles)",
    )


def test_criterion_05_exact_attack_reproduction():
    cfg = make_cfg(n_agents=10, eta=0.3, max_iters=50 * 10)
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    rep = adversary.score_report(
        adversary.exact_recursion_attack(res.transcript), res.history
    )
    worst = max(max(rep.err_x[a].max(), rep.err_y[a].max()) for a in rep.agents)
    worst_grad = 0.0
    for agent in rep.agents:
        acts = adversary.activations_of(res.transcript, agent)
        est = rep.gradient_estimates(agent, acts)
        xs, _ = res.history.trajectory(agent)
        true_g = np.array(
            [problem.objectives[agent - 1].gradient(xs[k + 1]) for k in acts]
        )
        worst_grad = max(worst_grad, float(np.max(np.abs(est - true_g))))
    ok = worst <= 1e-9 and worst_grad <= 1e-9
    assert report(
        "05", ok,
        f"deterministic transcript inverted: state error {worst:.2e}, "
        f"gradient error {worst_grad:.2e}, both <= 1e-9",
    )


def test_criterion_06_backward_attack_error_bounds():
    eps = 1e-4
    worst_margin = np.inf
    for seed in range(10):
        cfg = make_cfg(n_agents=10, eta=0.3, max_iters=100_000, stop_eps=eps)
        cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 9, seed + 18
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        rep = adversary.score_report(
            adversary.terminal_backward_attack(res.transcript, eps=eps), res.history
        )
        target = rep.agents[0]
        last = res.transcript.last_iteration
        total = last // 10
        for n in range(1, total + 1):
            k_rep = last - (n - 1) * 10
            bx, by = adversary.backward_error_bounds(n, total, eps, cfg.rho)
            ex = float(np.linalg.norm(rep.err_x[target][k_rep]))
            ey = float(np.linalg.norm(rep.err_y[target][k_rep]))
            if ex >= bx or ey >= by:
                assert report("06", False,
                              f"bound violated at seed {seed} epoch {n}")
            worst_margin = min(worst_margin, bx - ex, by - ey)
    assert report(
        "06", True,
        f"backward-unrolling errors inside 2^n*eps and rho(2^(C+1)-2^n)*eps "
        f"bounds for all epochs, 10 seeds (min margin {worst_margin:.2e})",
    )


def test_criterion_07_underdeterminacy_accounting():
    ok = True
    for k in (10, 100, 1000):
        for n in (3, 10, 100):
            eav = adversary.count_equations_unknowns("piadmm1", k, n).stated
            col = adversary.count_equations_unknowns("colluding", k, n).stated
            c = k // n
            ok &= eav == (2 * k + n + 2, 3 * k + 2 * n + 3)
            ok &= col == (2 * c + 3, 3 * c + 5)
    assert report(
        "07", ok,
        "eavesdropper (2K+N+2, 3K+2N+3) and colluders (2(K//N)+3, 3(K//N)+5) "
        "counts exact for K in {10,100,1000}, N in {3,10,100}",
    )


@pytest.fixture(scope="module")
def privacy_attack_errors():
    """Per-variant, per-seed first-coordinate estimation errors for agent 1
    on the perturbed large-network runs (shared by criteria 8a/8b)."""
    out = {}
    for variant, sigma in ((Variant.PIADMM1, 0.0), (Variant.PIADMM2, 1e-3)):
        rows = []
        for seed in (1, 2, 3, 4, 5):
            cfg = make_cfg(n_agents=100, eta=0.3, rho=10.0, variant=variant,
                           init=InitSpec.uniform(0, 100),
                           gamma=GammaSpec.uniform(0.9, 1.1), sigma=sigma,
                           max_iters=2001)
            cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 500, seed + 900
            graph, problem = build_problem(cfg)
            res = run(problem, graph, cfg)
            rep = adversary.score_report(
                adversary.lsq_attack(res.transcript, agents=[1]), res.history
            )
            rows.append((rep.err_x[1][:, 0], rep.err_y[1][:, 0]))
        out[variant] = rows
    return out


def test_criterion_08a_states_revealed_at_convergence(privacy_attack_errors):
    ok = True
    details = []
    for variant, rows in privacy_attack_errors.items():
        ratios = [ex[2000] / ex[0] for ex, _ in rows]
        med = float(np.median(ratios))
        details.append(f"{variant.value} median final/initial x error {med:.2e}")
        ok &= med < 1e-2
    assert report("08a", ok, "; ".join(details) + " (< 1e-2)")


def test_criterion_08b_dual_error_growth_as_stated(privacy_attack_errors):
    # Known red: this encodes the target that the dual estimation error must
    # GROW from k=0 to k=2000 by 10x.  The construction concentrates the
    # error at k=0 instead, necessarily: the randomized start is exactly what
    # the under-determined system cannot see, so the k=0 dual error is
    # Theta(rho * x^0-scale) ~ 1e3 while the pinned final cycle keeps late
    # errors O(1).  No legitimate estimator variant inverts that ordering
    # (verified against deep/shallow solver tolerances and hard/soft pinning),
    # so the check is kept verbatim and left failing rather than weakened.
    ok = True
    details = []
    for variant, rows in privacy_attack_errors.items():
        ratios = [ey[2000] / ey[0] for _, ey in rows]
        med = float(np.median(ratios))
        details.append(f"{variant.value} median y-error growth k=0->2000 {med:.2e}")
        ok &= med > 10.0
    assert report("08b", ok, "; ".join(details) + " (required > 10)")


def test_criterion_09_primal_noise_error_floor():
    n = 10
    cycles = 2000

    def best_accuracy(variant, sigma):
        cfg = make_cfg(n_agents=n, eta=0.4, rho=10.0, variant=variant,
                       init=InitSpec.uniform(0, 100), sigma=sigma,
                       max_iters=cycles * n)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        return float(np.min(res.trace.accuracies()))

    best_plain = best_accuracy(Variant.IADMM, 0.0)
    best_noisy = best_accuracy(Variant.PIADMM2, 1e-3)
    factor = best_noisy / max(best_plain, 1e-300)

    cfg_a = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 100),
                     max_iters=300)
    graph, problem = build_problem(cfg_a)
    ref = run(problem, graph, cfg_a)
    cfg_b = make_cfg(variant=Variant.PIADMM2, init=InitSpec.uniform(0, 100),
                     sigma=0.0, max_iters=300)
    res = run(problem, graph, cfg_b)
    bit_identical = (
        np.array_equal(res.x, ref.x)
        and np.array_equal(res.y, ref.y)
        and np.array_equal(res.z, ref.z)
    )
    ok = factor >= 10.0 and bit_identical
    assert report(
        "09", ok,
        f"noise floor: best accuracy {best_noisy:.2e} vs {best_plain:.2e} "
        f"(factor {factor:.1e} >= 10); zero-noise run bit-identical: {bit_identical}",
    )


def test_criterion_10_ring_order_beats_random_walk():
    budget = 5000
    n = 50
    accs = {Variant.IADMM: [], Variant.WADMM_BASELINE: []}
    for seed in range(10):
        for variant in accs:
            cfg = make_cfg(n_agents=n, eta=0.3, rho=10.0, variant=variant,
                           max_iters=budget)
            cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 70, seed + 140
            graph, problem = build_problem(cfg)
            res = run(problem, graph, cfg)
            rec = res.trace.records[-1]
            assert rec.comm_units == budget
            accs[variant].append(rec.accuracy)
    med_ring = float(np.median(accs[Variant.IADMM]))
    med_walk = float(np.median(accs[Variant.WADMM_BASELINE]))
    ok = med_ring <= med_walk
    assert report(
        "10", ok,
        f"at {budget} comm units: median accuracy ring {med_ring:.2e} <= "
        f"random walk {med_walk:.2e} (10 seeds)",
    )


def test_criterion_11_numerics():
    rng = np.random.default_rng(77)
    h = 1e-5
    worst_r, worst_l = 0.0, 0.0
    ridge = RidgeObjective(generate_ridge_data(30, 2, seed=5))
    logi = LogisticObjective(generate_logistic_data(30, 2, 6, 7))
    for _ in range(100):
        x = rng.standard_normal(2)
        for obj, is_ridge in ((ridge, True), (logi, False)):
            g = obj.gradient(x)
            fd = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
            if is_ridge:
                worst_r = max(worst_r, rel)
            else:
                worst_l = max(worst_l, rel)
    worst_rec = 0.0
    for seed in range(10):
        rng2 = np.random.default_rng(seed)
        a = rng2.standard_normal((20, 10))
        x_true = rng2.standard_normal(10)
        trips = [(i, j, float(a[i, j])) for i in range(20) for j in range(10)]
        res = lsqr(SparseSystem.from_triplets(20, 10, trips, a @ x_true), tol=1e-12)
        worst_rec = max(
            worst_rec, float(np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true))
        )
    ok = worst_r <= 1e-9 and worst_l <= 1e-5 and worst_rec <= 1e-8
    assert report(
        "11", ok,
        f"finite differences: quadratic {worst_r:.1e} <= 1e-9, logistic "
        f"{worst_l:.1e} <= 1e-5; planted sparse recovery {worst_rec:.1e} <= 1e-8",
    )


def test_criterion_12_verify_command():
    t0 = time.perf_counter()
    code = cli_main(["verify", "--quiet"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 60.0
    assert report(
        "12", ok, f"verify command exit code {code} in {elapsed:.1f}s (< 60s)"
    )
