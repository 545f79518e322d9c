import numpy as np
import pytest

from conftest import make_cfg
from ringadmm import adversary
from ringadmm.adversary import (
    AttackPreconditionError,
    activations_of,
    backward_error_bounds,
    build_colluding_system,
    build_ls_system,
    colluding_attack,
    count_equations_unknowns,
    exact_recursion_attack,
    lsq_attack,
    score_report,
    system_truth_residual,
    terminal_backward_attack,
)
from ringadmm.harness import build_problem
from ringadmm.linalg import lsqr
from ringadmm.objectives import Dataset, RidgeObjective
from ringadmm.solver import GammaSpec, InitSpec, Problem, Variant, run
from ringadmm.topology import generate_graph


def run_cfg(cfg):
    graph, problem = build_problem(cfg)
    return run(problem, graph, cfg)


class TestExactRecursion:
    def test_reconstructs_deterministic_run(self):
        cfg = make_cfg(n_agents=10, eta=0.3, max_iters=50 * 10)
        res = run_cfg(cfg)
        rep = score_report(exact_recursion_attack(res.transcript), res.history)
        worst = max(max(rep.err_x[a].max(), rep.err_y[a].max()) for a in rep.agents)
        assert worst <= 1e-9
        assert not rep.init_assumption_violated

    def test_reconstruction_precision_at_benchmark_size(self):
        # the exact_iadmm benchmark shape; the token differences the attack
        # inverts come from the solver's folded update, one rounding each
        cfg = make_cfg(n_agents=20, eta=0.3, p=2, b=30, rho=10.0, max_iters=2000)
        res = run_cfg(cfg)
        rep = score_report(exact_recursion_attack(res.transcript), res.history)
        worst = max(max(rep.err_x[a].max(), rep.err_y[a].max()) for a in rep.agents)
        assert worst <= 1e-11

    def test_gradients_equal_dual_estimates(self):
        cfg = make_cfg(n_agents=6, eta=0.5, max_iters=120)
        res = run_cfg(cfg)
        rep = exact_recursion_attack(res.transcript)
        graph, problem = build_problem(cfg)
        for agent in (1, 4):
            acts = activations_of(res.transcript, agent)
            est = rep.gradient_estimates(agent, acts)
            xs, _ = res.history.trajectory(agent)
            true_g = np.array(
                [problem.objectives[agent - 1].gradient(xs[k + 1]) for k in acts]
            )
            assert np.max(np.abs(est - true_g)) <= 1e-9

    def test_fixed_point_run_all_zero(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        problem = Problem([RidgeObjective(data) for _ in range(4)], np.zeros(2))
        graph = generate_graph(4, 1.0, 0)
        cfg = make_cfg(n_agents=4, max_iters=40)
        with pytest.warns(UserWarning, match="excluding agents"):  # every start is x*
            res = run(problem, graph, cfg)
        rep = score_report(exact_recursion_attack(res.transcript), res.history)
        for a in rep.agents:
            assert np.all(rep.est_x[a] == 0.0)
            assert np.all(rep.err_x[a] == 0.0)
            assert np.all(rep.err_y[a] == 0.0)

    def test_randomized_start_defeats_recursion(self):
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(1, 100),
                       max_iters=200)
        res = run_cfg(cfg)
        rep = score_report(exact_recursion_attack(res.transcript), res.history)
        assert rep.init_assumption_violated
        min_offset = min(np.linalg.norm(res.history.x0[i]) for i in range(8))
        worst_initial = max(np.linalg.norm(rep.err_x[a][0]) for a in rep.agents)
        assert worst_initial >= min_offset


class TestTerminalBackward:
    def test_bounds_hold_at_declared_eps(self):
        eps = 1e-4
        for seed in range(3):
            cfg = make_cfg(n_agents=10, eta=0.3, max_iters=100_000, stop_eps=eps)
            cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 9, seed + 17
            res = run_cfg(cfg)
            rep = score_report(
                terminal_backward_attack(res.transcript, eps=eps), res.history
            )
            target = rep.agents[0]
            last = res.transcript.last_iteration
            total = last // 10
            assert target == int(res.transcript.senders[last])
            for n in range(1, total + 1):
                k_rep = last - (n - 1) * 10
                bx, by = backward_error_bounds(n, total, eps, cfg.rho)
                assert np.linalg.norm(rep.err_x[target][k_rep]) < bx
                assert np.linalg.norm(rep.err_y[target][k_rep]) < by

    def test_earliest_epoch_has_largest_bound(self):
        eps, rho = 1e-4, 10.0
        total = 12
        bounds = [backward_error_bounds(n, total, eps, rho) for n in range(1, total + 1)]
        assert bounds[-1][0] == max(b[0] for b in bounds)

    def test_exactly_converged_fixed_point(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        problem = Problem([RidgeObjective(data) for _ in range(4)], np.zeros(2))
        graph = generate_graph(4, 1.0, 0)
        cfg = make_cfg(n_agents=4, max_iters=100, stop_eps=1e-15)
        with pytest.warns(UserWarning, match="excluding agents"):  # every start is x*
            res = run(problem, graph, cfg)
        rep = score_report(
            terminal_backward_attack(res.transcript, eps=1e-12), res.history
        )
        target = rep.agents[0]
        assert rep.err_x[target].max() <= 1e-9
        assert rep.err_y[target].max() <= 1e-9

    def test_precondition_enforced(self):
        cfg = make_cfg(max_iters=50, stop_eps=0.0)
        res = run_cfg(cfg)
        with pytest.raises(AttackPreconditionError):
            terminal_backward_attack(res.transcript, eps=1e-4)


class TestMeasurementSystem:
    def test_dimensions_without_options(self):
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 10),
                       n_agents=6, max_iters=40)
        res = run_cfg(cfg)
        k = res.transcript.last_iteration
        ms = build_ls_system(res.transcript, kkt_row=False, pin_last_cycle=False)
        assert ms.shape == (2 * k + 6 + 2, 2 * k + 2 * 6 + 2)
        l, m = ms.shape
        assert m - l == 6  # one unresolved pair per agent

    def test_dimensions_with_options(self):
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 10),
                       n_agents=6, max_iters=40)
        res = run_cfg(cfg)
        k = res.transcript.last_iteration
        ms = build_ls_system(res.transcript, kkt_row=True, pin_last_cycle=True)
        counts = count_equations_unknowns("randinit", k, 6, kkt_row=True,
                                          pin_last_cycle=True)
        assert ms.shape == counts.implemented

    def test_minimal_one_cycle_system_solves(self):
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 10),
                       n_agents=5, eta=1.0, max_iters=5)
        res = run_cfg(cfg)
        ms = build_ls_system(res.transcript)
        for system in ms.systems:
            result = lsqr(system)
            assert np.all(np.isfinite(result.x))

    def test_prefix_system_dimensions(self):
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 10),
                       n_agents=6, max_iters=60)
        res = run_cfg(cfg)
        k = 30
        ms = build_ls_system(res.transcript.truncated(k), kkt_row=False,
                             pin_last_cycle=False)
        counts = count_equations_unknowns("randinit", k, 6)
        assert ms.shape == counts.implemented

    def test_pin_needs_full_cycle(self):
        cfg = make_cfg(n_agents=8, max_iters=4)
        res = run_cfg(cfg)
        with pytest.raises(ValueError, match="full cycle"):
            build_ls_system(res.transcript, pin_last_cycle=True)

    def test_truth_satisfies_rows_when_assumptions_match(self):
        # unit step scale actually used, tight convergence: the ground truth
        # must make every optional row nearly exact as well
        cfg = make_cfg(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(0, 1),
                       max_iters=40_000, stop_eps=1e-12)
        res = run_cfg(cfg)
        ms = build_ls_system(res.transcript)
        assert system_truth_residual(ms, res.history) <= 1e-9

    def test_truth_satisfies_exact_rows_under_primal_noise(self):
        # injected primal noise leaves the init and recursion relations exact;
        # only the asymptotic rows (pins, dual sum) pick up the noise floor
        cfg = make_cfg(variant=Variant.PIADMM2, sigma=1e-3,
                       init=InitSpec.uniform(0, 1), max_iters=2_000)
        res = run_cfg(cfg)
        ms = build_ls_system(res.transcript, kkt_row=False, pin_last_cycle=False)
        assert system_truth_residual(ms, res.history) <= 1e-9


class TestCounts:
    @pytest.mark.parametrize("k", [10, 100, 1000])
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_stated_counts_match_published_formulas(self, k, n):
        randomized = count_equations_unknowns("randinit", k, n)
        assert randomized.stated == (2 * k + 3, 2 * k + 2 * n + 2)
        perturbed = count_equations_unknowns("piadmm1", k, n)
        assert perturbed.stated == (2 * k + n + 2, 3 * k + 2 * n + 3)
        colluding = count_equations_unknowns("colluding", k, n)
        c = k // n
        assert colluding.stated == (2 * c + 3, 3 * c + 5)

    def test_underdeterminacy_deficits(self):
        for k, n in ((50, 5), (200, 10)):
            impl = count_equations_unknowns("randinit", k, n).implemented
            assert impl[1] - impl[0] == n
            stated = count_equations_unknowns("piadmm1", k, n).stated
            assert stated[1] - stated[0] == k + n + 1
            assert stated[1] > stated[0]

    def test_colluding_example_dimensions(self):
        counts = count_equations_unknowns("colluding", 10 * 7, 7)
        assert counts.stated == (23, 35)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            count_equations_unknowns("nonsense", 10, 5)


class TestLsqAttack:
    def test_matches_exact_attack_on_deterministic_run(self):
        cfg = make_cfg(n_agents=5, eta=1.0, max_iters=20_000, stop_eps=1e-8)
        res = run_cfg(cfg)
        rep_exact = exact_recursion_attack(res.transcript)
        rep_lsq = lsq_attack(res.transcript)
        gap = max(
            max(
                np.max(np.abs(rep_lsq.est_x[a] - rep_exact.est_x[a])),
                np.max(np.abs(rep_lsq.est_y[a] - rep_exact.est_y[a])),
            )
            for a in range(1, 6)
        )
        assert gap <= 1e-5
        assert rep_lsq.lsqr_converged

    def test_final_cycle_states_leak_on_converged_runs(self):
        # consensus reveals the primal states regardless of the variant
        eps = 1e-6
        for variant, gamma, sigma in (
            (Variant.IADMM_RANDINIT, GammaSpec.constant(1.0), 0.0),
            (Variant.PIADMM1, GammaSpec.uniform(0.9, 1.1), 0.0),
            (Variant.PIADMM2, GammaSpec.constant(1.0), 1e-8),
        ):
            cfg = make_cfg(variant=variant, gamma=gamma, sigma=sigma,
                           init=InitSpec.uniform(0, 1), max_iters=60_000,
                           stop_eps=eps)
            res = run_cfg(cfg)
            rep = score_report(lsq_attack(res.transcript), res.history)
            last = res.transcript.last_iteration
            final_cycle_err = max(
                np.linalg.norm(rep.err_x[a][last + 1]) for a in rep.agents
            )
            assert final_cycle_err <= 10 * eps

    def test_early_dual_states_stay_hidden_under_perturbation(self):
        # the random start dominates the early-iteration estimation error:
        # the dual at iteration 0 is never recovered
        cfg = make_cfg(n_agents=20, eta=0.3, variant=Variant.PIADMM1,
                       init=InitSpec.uniform(0, 100),
                       gamma=GammaSpec.uniform(0.9, 1.1), max_iters=20 * 40)
        res = run_cfg(cfg)
        rep = score_report(lsq_attack(res.transcript, agents=[1]), res.history)
        err_y0 = np.linalg.norm(rep.err_y[1][0])
        err_y_final = np.linalg.norm(rep.err_y[1][res.transcript.last_iteration])
        assert err_y0 >= 1.0
        assert err_y0 > err_y_final

    def test_agents_subset(self):
        cfg = make_cfg(max_iters=40, variant=Variant.IADMM_RANDINIT,
                       init=InitSpec.uniform(0, 10))
        res = run_cfg(cfg)
        rep = lsq_attack(res.transcript, agents=[2, 5])
        assert rep.agents == [2, 5]


@pytest.mark.parametrize("attack", [exact_recursion_attack, lsq_attack])
def test_agents_outside_one_to_n_are_rejected(attack):
    res = run_cfg(make_cfg(n_agents=5, eta=1.0, max_iters=40))
    for agents in ([0], [-1], [6], [2, 6]):
        with pytest.raises(ValueError, match=r"agents must be in 1\.\.5, got "):
            attack(res.transcript, agents=agents)
    # a valid list is reported, with the estimates of the full report
    whole, rep = attack(res.transcript), attack(res.transcript, agents=[5, 2])
    assert rep.agents == [2, 5]
    for a in (2, 5):
        assert rep.est_x[a].tobytes() == whole.est_x[a].tobytes()
        assert rep.est_y[a].tobytes() == whole.est_y[a].tobytes()


class TestColludingAttack:
    def _run(self, c, seed):
        cfg = make_cfg(n_agents=10, eta=0.5, variant=Variant.PIADMM1,
                       init=InitSpec.uniform(0, 100), gamma=GammaSpec.constant(c),
                       max_iters=10 * 100)
        cfg.seed_graph, cfg.seed_data, cfg.seed_solver = seed, seed + 7, seed + 13
        res = run_cfg(cfg)
        _, y_all = res.history.states_at(res.history.last_iteration + 1)
        y_sum = y_all[1:].sum(axis=0)
        return res, y_sum

    def test_reported_underdeterminacy(self):
        res, y_sum = self._run(1.05, 1)
        ms = build_colluding_system(res.transcript, 1, None, pin=False)
        l, m = ms.shape
        assert m - l == 1  # linearized count; with unknown scales it is worse
        counts = count_equations_unknowns("colluding", res.transcript.last_iteration, 10)
        assert counts.stated[1] > counts.stated[0]

    def test_dual_deviation_dominates_primal_by_penalty_factor(self):
        # the unrecoverable start propagates with the dual a factor rho above
        # the primal at matched epochs
        res, y_sum = self._run(1.0, 2)
        rep = score_report(
            colluding_attack(res.transcript, 1, y_sum), res.history
        )
        for k in (0, 11, 21, 31):
            ex = np.linalg.norm(rep.err_x[1][k])
            ey = np.linalg.norm(rep.err_y[1][k])
            assert ey >= 9.9 * ex

    def test_wrong_scale_assumption_bias_grows_with_offset(self):
        gaps = []
        for c in (1.02, 1.1, 1.2):
            diffs = []
            for seed in (1, 2, 3):
                res, y_sum = self._run(c, seed)
                rep_unit = score_report(
                    colluding_attack(res.transcript, 1, y_sum, gamma_assumed=1.0),
                    res.history,
                )
                rep_true = score_report(
                    colluding_attack(res.transcript, 1, y_sum, gamma_assumed=c),
                    res.history,
                )
                e_unit = float(np.mean(np.linalg.norm(rep_unit.err_y[1], axis=1)))
                e_true = float(np.mean(np.linalg.norm(rep_true.err_y[1], axis=1)))
                diffs.append(abs(e_unit - e_true))
            gaps.append(np.mean(diffs))
        assert gaps[0] < gaps[1] < gaps[2]

    def test_never_activating_target_rejected(self):
        cfg = make_cfg(n_agents=8, max_iters=3)
        res = run_cfg(cfg)
        with pytest.raises(ValueError, match="never activates"):
            build_colluding_system(res.transcript, target=7)


def test_report_csv_schema(tmp_path):
    cfg = make_cfg(max_iters=24)
    res = run_cfg(cfg)
    rep = score_report(exact_recursion_attack(res.transcript), res.history)
    out = tmp_path / "attack.csv"
    with open(out, "w") as fh:
        rep.write_csv(fh, agent=1)
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=1"
    header = lines[1].split(",")
    assert header == ["k", "coordinate", "truth_x", "est_x", "truth_y", "est_y",
                      "abs_err_x", "abs_err_y"]
    # 24 iterations -> states k = 0 .. 24, two coordinate rows each
    assert len(lines) == 2 + (24 + 1) * 2


def test_unscored_report_has_empty_truth_columns(tmp_path):
    cfg = make_cfg(max_iters=16)
    res = run_cfg(cfg)
    rep = exact_recursion_attack(res.transcript)  # not scored
    out = tmp_path / "attack.csv"
    with open(out, "w") as fh:
        rep.write_csv(fh, agent=1, coordinates=[1])
    row = out.read_text().splitlines()[2].split(",")
    assert row[2] == "" and row[4] == "" and row[6] == "" and row[7] == ""
