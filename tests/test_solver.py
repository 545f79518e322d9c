import numpy as np
import pytest

from conftest import aug_lagrangian, make_cfg, z_before
from ringadmm.harness import build_problem
from ringadmm.objectives import Dataset, RidgeObjective
from ringadmm.solver import (
    GammaSpec,
    InitSpec,
    Problem,
    Simulation,
    Variant,
    XUpdateMode,
    accuracy,
    gamma_lower_bound,
    initialize,
    kkt_residuals,
    run,
    sample_gamma,
    token_gap,
    x_update,
    y_update,
    z_update_incremental,
)
from ringadmm.topology import generate_graph


def quadratic_bowl_problem(n_agents: int) -> Problem:
    """f_i(x) = ||x||^2 / 2 for every agent; optimum at the origin."""
    data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    return Problem([RidgeObjective(data) for _ in range(n_agents)], np.zeros(2))


class TestInitialize:
    def test_deterministic_all_zero(self):
        g = generate_graph(3, 1.0, 0)
        cfg = make_cfg(n_agents=3)
        rng = np.random.default_rng(0)
        x, y, z = initialize(g, cfg, dim=2, rng=rng)
        assert not x.any() and not y.any() and not z.any()

    def test_randomized_token_sum_is_exactly_zero(self):
        g = generate_graph(6, 0.5, 1)
        cfg = make_cfg(
            n_agents=6,
            variant=Variant.IADMM_RANDINIT,
            init=InitSpec.uniform(0, 100),
        )
        x, y, z = initialize(g, cfg, dim=2, rng=np.random.default_rng(5))
        assert np.all(x - y / cfg.rho == 0.0)
        assert np.all((x >= 0) & (x < 100))
        assert x.any()


class TestUpdateOps:
    def test_x_update_zero_function(self):
        obj = RidgeObjective(Dataset(np.zeros((1, 2)), np.zeros(1)))
        z = np.array([1.0, 2.0])
        y = np.array([2.0, -4.0])
        out = x_update(obj, np.zeros(2), y, z, 2.0, XUpdateMode.EXACT_PROX)
        assert np.allclose(out, z + y / 2.0, atol=1e-14)

    def test_x_update_first_order_cancellation(self):
        # when the dual already equals the gradient the step lands on z
        rng = np.random.default_rng(2)
        obj = RidgeObjective(Dataset(rng.uniform(size=(4, 2)), rng.uniform(size=4)))
        x = rng.standard_normal(2)
        y = obj.gradient(x)
        z = rng.standard_normal(2)
        out = x_update(obj, x, y, z, 3.0, XUpdateMode.FIRST_ORDER)
        assert np.allclose(out, z, atol=1e-14)

    def test_x_update_matches_prox_example(self):
        obj = RidgeObjective(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])))
        out = x_update(obj, np.zeros(2), np.zeros(2), np.zeros(2), 2.0,
                       XUpdateMode.EXACT_PROX)
        assert np.allclose(out, [0.5, 0.0], atol=1e-14)

    def test_y_update_zero_residual(self):
        y = np.array([1.0, -1.0])
        z = np.array([0.3, 0.7])
        assert np.array_equal(y_update(y, z, z.copy(), 5.0), y)

    def test_y_update_formula(self):
        out = y_update(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), 2.0)
        assert np.allclose(out, [2.0, 0.0], atol=0)

    def test_y_update_equals_gradient_after_exact_prox(self):
        rng = np.random.default_rng(4)
        obj = RidgeObjective(Dataset(rng.uniform(size=(6, 2)), rng.uniform(size=6)))
        for _ in range(25):
            z = rng.standard_normal(2)
            y = rng.standard_normal(2)
            rho_eff = float(rng.uniform(0.5, 10))
            x_new = obj.prox(z, y, rho_eff)
            y_new = y_update(y, z, x_new, rho_eff)
            assert np.linalg.norm(y_new - obj.gradient(x_new)) <= 1e-9

    def test_z_update_no_change(self):
        z = np.array([1.0, 2.0])
        x = np.array([3.0, 4.0])
        y = np.array([5.0, 6.0])
        assert np.array_equal(z_update_incremental(z, x, y, x, y, 2.0, 5), z)

    def test_z_update_single_agent_full_average(self):
        z = np.zeros(2)
        x_new = np.array([2.0, 0.0])
        y_new = np.array([4.0, 0.0])
        out = z_update_incremental(z, np.zeros(2), np.zeros(2), x_new, y_new, 2.0, 1)
        assert np.allclose(out, x_new - y_new / 2.0, atol=0)

    def test_incremental_z_tracks_full_average(self, small_ridge=None):
        cfg = make_cfg(max_iters=200)
        graph, problem = build_problem(cfg)
        sim = Simulation(problem, graph, cfg)
        worst = 0.0
        for _ in range(200):
            sim.step()
            avg = np.mean(sim.x - sim.y / cfg.rho, axis=0)
            worst = max(worst, float(np.linalg.norm(sim.z - avg)))
        assert worst <= 1e-10


class TestGamma:
    def test_constant_one(self):
        rng = np.random.default_rng(0)
        assert sample_gamma(GammaSpec.constant(1.0), rng, 10.0, 1.0, 5) == 1.0

    def test_uniform_draws_in_support(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = sample_gamma(GammaSpec.uniform(0.9, 1.1), rng, 10.0, 1.0, 5)
            assert 0.9 <= g <= 1.1

    def test_floor_formula(self):
        rng = np.random.default_rng(2)
        got = sample_gamma(GammaSpec.floor(1.01), rng, 2.0, 1.0, 1)
        assert got == pytest.approx(1.01 * 17.0, rel=1e-12)

    def test_nonpositive_support_rejected(self):
        with pytest.raises(ValueError):
            GammaSpec.uniform(-0.1, 0.5)
        with pytest.raises(ValueError):
            GammaSpec.uniform(0.0, 0.5)
        with pytest.raises(ValueError):
            GammaSpec.constant(0.0)

    def test_lower_bound_values(self):
        assert gamma_lower_bound(2.0, 1.0, 1) == pytest.approx(17.0)
        assert gamma_lower_bound(2.0, 1.0, 10) == pytest.approx(80.0)
        with pytest.raises(ValueError):
            gamma_lower_bound(1.0, 1.0, 5)


class TestStepAndRun:
    def test_quadratic_bowl_fixed_point(self):
        problem = quadratic_bowl_problem(4)
        graph = generate_graph(4, 1.0, 0)
        cfg = make_cfg(n_agents=4, max_iters=40)
        with pytest.warns(UserWarning, match="excluding agents"):  # every start is x*
            res = run(problem, graph, cfg)
        assert not res.x.any() and not res.y.any() and not res.z.any()

    @pytest.mark.parametrize(
        "variant,gamma,sigma",
        [
            (Variant.PIADMM1, GammaSpec.constant(1.0), 0.0),
            (Variant.PIADMM2, GammaSpec.constant(1.0), 0.0),
        ],
    )
    def test_reduction_to_randomized_init(self, variant, gamma, sigma):
        cfg0 = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 100),
                        max_iters=150)
        graph, problem = build_problem(cfg0)
        ref = run(problem, graph, cfg0)
        cfg1 = make_cfg(variant=variant, init=InitSpec.uniform(0, 100), gamma=gamma,
                        sigma=sigma, max_iters=150)
        res = run(problem, graph, cfg1)
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.y, ref.y)
        assert np.array_equal(res.z, ref.z)

    def test_inactive_agents_frozen(self):
        cfg = make_cfg(variant=Variant.PIADMM1, init=InitSpec.uniform(0, 10),
                       gamma=GammaSpec.uniform(0.9, 1.1))
        graph, problem = build_problem(cfg)
        sim = Simulation(problem, graph, cfg)
        for _ in range(60):
            x_before = sim.x.copy()
            y_before = sim.y.copy()
            rec = sim.step()
            i = rec.agent - 1
            others = np.arange(cfg.n_agents) != i
            assert np.array_equal(sim.x[others], x_before[others])
            assert np.array_equal(sim.y[others], y_before[others])

    def test_token_conservation_all_variants(self):
        for variant, init, gamma, sigma in (
            (Variant.IADMM, InitSpec.zeros(), GammaSpec.constant(1.0), 0.0),
            (Variant.IADMM_RANDINIT, InitSpec.uniform(0, 100), GammaSpec.constant(1.0), 0.0),
            (Variant.PIADMM1, InitSpec.uniform(0, 100), GammaSpec.uniform(0.9, 1.1), 0.0),
            (Variant.PIADMM2, InitSpec.uniform(0, 100), GammaSpec.constant(1.0), 1e-3),
            (Variant.WADMM_BASELINE, InitSpec.zeros(), GammaSpec.constant(1.0), 0.0),
        ):
            cfg = make_cfg(variant=variant, init=init, gamma=gamma, sigma=sigma,
                           max_iters=300)
            graph, problem = build_problem(cfg)
            sim = Simulation(problem, graph, cfg)
            for _ in range(cfg.max_iters):
                sim.step()
                assert token_gap(sim.x, sim.y, sim.z, cfg.rho) <= 1e-10

    def test_step_scale_identity_under_perturbation(self):
        # rho (z - x_new) must equal (y_new - y_old) / gamma at every activation
        cfg = make_cfg(variant=Variant.PIADMM1, init=InitSpec.uniform(0, 10),
                       gamma=GammaSpec.uniform(0.9, 1.1))
        graph, problem = build_problem(cfg)
        sim = Simulation(problem, graph, cfg)
        for _ in range(80):
            z_before = sim.z.copy()
            y_before = sim.y.copy()
            rec = sim.step()
            i = rec.agent - 1
            lhs = cfg.rho * (z_before - sim.x[i])
            rhs = (sim.y[i] - y_before[i]) / rec.gamma
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_first_order_dual_equals_gradient_at_previous_point(self):
        cfg = make_cfg(x_update=XUpdateMode.FIRST_ORDER, rho=10.0)
        graph, problem = build_problem(cfg)
        sim = Simulation(problem, graph, cfg)
        for _ in range(60):
            x_before = sim.x.copy()
            rec = sim.step()
            i = rec.agent - 1
            grad_old = problem.objectives[i].gradient(x_before[i])
            assert np.linalg.norm(sim.y[i] - grad_old) <= 1e-12

    def test_ring_trajectory_independent_of_extra_edges(self):
        # only ring edges ever carry the token under the cyclic order, so
        # the trajectory cannot depend on the density
        accs = []
        for eta in (0.3, 0.5, 1.0):
            cfg = make_cfg(n_agents=10, eta=eta, max_iters=200)
            graph, problem = build_problem(cfg)
            res = run(problem, graph, cfg)
            accs.append(res.trace.accuracies())
        assert np.array_equal(accs[0], accs[1])
        assert np.array_equal(accs[0], accs[2])

    def test_larger_network_converges_slower_at_fixed_budget(self):
        budget = 2000
        out = {}
        for n in (40, 80):
            cfg = make_cfg(n_agents=n, eta=0.3, rho=10.0, max_iters=budget)
            graph, problem = build_problem(cfg)
            res = run(problem, graph, cfg)
            out[n] = res.trace.final.accuracy
        assert out[80] > out[40]

    def test_corrupted_token_update_is_caught(self):
        # mutation check: folding the state change with the perturbed scale
        # instead of the global penalty must trip the conservation checker
        cfg = make_cfg(variant=Variant.PIADMM1, init=InitSpec.uniform(0, 10),
                       gamma=GammaSpec.uniform(0.5, 0.8))
        graph, problem = build_problem(cfg)
        rng = np.random.default_rng(0)
        x, y, z = initialize(graph, cfg, problem.dim, rng)
        worst = 0.0
        for k in range(100):
            i = k % cfg.n_agents
            gamma = sample_gamma(cfg.gamma, rng, cfg.rho, problem.lipschitz(),
                                 cfg.n_agents)
            rho_eff = cfg.rho * gamma
            x_new = x_update(problem.objectives[i], x[i], y[i], z, rho_eff,
                             XUpdateMode.EXACT_PROX)
            y_new = y_update(y[i], z, x_new, rho_eff)
            z = z_update_incremental(z, x[i], y[i], x_new, y_new, rho_eff,
                                     cfg.n_agents)  # wrong: rho_eff, not rho
            x[i], y[i] = x_new, y_new
            worst = max(worst, token_gap(x, y, z, cfg.rho))
        assert worst > 1e-10  # the invariant checker must flag this

    def test_regime_flags(self):
        from ringadmm.solver import descent_regimes

        flags = descent_regimes(rho=10.0, lipschitz=1.2, n_agents=5,
                              gamma=GammaSpec.uniform(0.9, 1.1))
        assert flags["descent_fixed_step"]          # 10 >= 2*1.2 + 2
        assert not flags["descent_perturbed_step"]  # support below the floor
        flags = descent_regimes(rho=2.2, lipschitz=1.2, n_agents=5,
                              gamma=GammaSpec.floor(1.01))
        assert not flags["descent_fixed_step"]
        assert flags["descent_perturbed_step"]

    def test_wadmm_walks_on_edges(self):
        cfg = make_cfg(variant=Variant.WADMM_BASELINE, n_agents=10, eta=0.3,
                       max_iters=120)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        senders = res.transcript.senders
        receivers = res.transcript.receivers
        for k in range(len(senders) - 1):
            assert receivers[k] == senders[k + 1]
            u, v = int(senders[k]), int(receivers[k])
            assert (min(u, v), max(u, v)) in graph.edges

    def test_divergence_guard(self):
        # first-order step with rho far below the curvature diverges
        cfg = make_cfg(x_update=XUpdateMode.FIRST_ORDER, rho=0.01, max_iters=5000)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        assert res.trace.diverged
        assert "diverged" in res.trace.stop_reason
        assert np.all(np.isfinite(res.trace.accuracies()))

    @pytest.mark.parametrize("field, value, message", [
        ("rho", 0.0, "rho must be positive"), ("sigma", -1.0, "sigma must be non-negative"),
        ("max_iters", 0, "max_iters must be at least 1"),
    ])
    def test_run_checks_fields_set_after_construction(self, field, value, message):
        cfg = make_cfg()
        graph, problem = build_problem(cfg)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=message):
            run(problem, graph, cfg)

    def test_stop_on_primal_eps(self):
        cfg = make_cfg(max_iters=50_000, stop_eps=1e-8)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        assert res.trace.stop_reason == "primal_eps"
        assert res.trace.final.r_primal < 1e-8
        assert res.transcript.stopped_by_eps

    def test_transcript_matches_history(self):
        cfg = make_cfg(max_iters=100)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        tr = res.transcript
        assert tr.last_iteration == 99
        assert list(tr.senders[:8]) == [1, 2, 3, 4, 5, 6, 7, 8]
        # token value equals the average implied by the recorded history
        x_at, y_at = res.history.states_at(50)
        assert np.allclose(
            z_before(tr, 50), np.mean(x_at - y_at / cfg.rho, axis=0), atol=1e-10
        )


class TestDescentRegimes:
    def test_fixed_step_monotone_small_ring(self):
        # rho = 2L + 2 with a small ring: monotone from the first iteration
        for seed in range(6):
            cfg = make_cfg(n_agents=4, eta=1.0, max_iters=4 * 200)
            cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 50, seed + 99
            graph, problem = build_problem(cfg)
            sc = cfg
            sc.rho = 2.0 * problem.lipschitz() + 2.0
            res = run(problem, graph, sc)
            lag = res.trace.lagrangians()
            assert np.max(np.diff(lag)) <= 1e-12

    def test_perturbed_step_monotone_and_bounded(self):
        cfg = make_cfg(n_agents=5, eta=1.0, variant=Variant.PIADMM1,
                       init=InitSpec.uniform(0, 0.01),
                       gamma=GammaSpec.floor(1.01), max_iters=12_000)
        graph, problem = build_problem(cfg)
        lips = problem.lipschitz()
        sc = cfg
        sc.rho = lips + 1.0
        res = run(problem, graph, sc)
        lag = res.trace.lagrangians()
        f_star = sum(f.value(problem.x_star) for f in problem.objectives)
        assert np.max(np.diff(lag)) <= 1e-12
        assert np.all(lag >= f_star - 1e-9)
        assert max(kkt_residuals(problem.objectives, res.x, res.y, res.z)) < 1e-6


class TestMetrics:
    def test_accuracy_definition_extremes(self):
        x_star = np.array([1.0, 1.0])
        x0 = np.zeros((3, 2))
        init_dist = np.linalg.norm(x0 - x_star, axis=1)
        assert accuracy(np.tile(x_star, (3, 1)), x_star, init_dist) == 0.0
        assert accuracy(x0, x_star, init_dist) == pytest.approx(1.0)

    def test_accuracy_excludes_agents_started_at_optimum(self):
        x_star = np.array([1.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        init_dist = np.array([0.0, 1.0])
        with pytest.warns(UserWarning, match="excluding"):
            val = accuracy(x, x_star, init_dist)
        assert val == pytest.approx(1.0)

    def test_kkt_residuals_at_convergence(self):
        cfg = make_cfg(max_iters=20_000, stop_eps=1e-9)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        r_grad, r_sum, r_cons = kkt_residuals(problem.objectives, res.x, res.y, res.z)
        assert r_grad < 1e-6 and r_sum < 1e-6 and r_cons < 1e-6

    def test_recorded_lagrangian_matches_reference(self):
        cfg = make_cfg(max_iters=50)
        graph, problem = build_problem(cfg)
        sim = Simulation(problem, graph, cfg)
        for _ in range(50):
            rec = sim.step()
            ref = aug_lagrangian(problem.objectives, sim.x, sim.y, sim.z, cfg.rho)
            assert rec.aug_lagrangian == pytest.approx(ref, abs=1e-9)

    def test_vanishing_steps_at_convergence(self):
        cfg = make_cfg(max_iters=30_000, stop_eps=1e-9)
        graph, problem = build_problem(cfg)
        res = run(problem, graph, cfg)
        n = cfg.n_agents
        last_cycle = res.trace.records[-n:]
        assert max(r.r_dualstep for r in last_cycle) < 1e-7
        z_steps = np.diff(res.transcript.z_values[-(n + 1):], axis=0)
        assert float(np.max(np.linalg.norm(z_steps, axis=1))) < 1e-7
        last = res.history.last_iteration
        for k in range(last - n + 1, last + 1):
            agent = int(res.history.agents[k])
            x_before, _ = res.history.states_at(k)
            x_step = np.linalg.norm(res.history.x_new[k] - x_before[agent - 1])
            assert float(x_step) < 1e-7
