"""Small-scale invariant suite behind the `verify` CLI command.

Every check re-derives its expectation independently of the code path it
exercises (BFS for connectivity, finite differences for gradients, full
re-averaging for the token, and so on) and runs in well under a minute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import adversary, linalg, objectives, solver, topology
from .config import ExperimentConfig
from .harness import build_problem


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _bfs_connected(graph: topology.Graph) -> bool:
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == graph.n_agents


def check_dense_solve() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for p in (1, 2, 4):
        for _ in range(20):
            a = rng.standard_normal((p, p)) + p * np.eye(p)
            b = rng.standard_normal(p)
            x = linalg.solve_dense(a, b)
            worst = max(worst, np.linalg.norm(a @ x - b) / (1 + np.linalg.norm(b)))
    return worst <= 1e-10, f"worst relative residual {worst:.2e}"


def check_lsqr() -> tuple[bool, str]:
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal((20, 10))
        x_true = rng.standard_normal(10)
        trips = [(i, j, float(a[i, j])) for i in range(20) for j in range(10)]
        system = linalg.SparseSystem.from_triplets(20, 10, trips, a @ x_true)
        res = linalg.lsqr(system, tol=1e-12)
        worst = max(worst, np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true))
        if np.any(np.diff(res.residual_history) > 1e-12):
            return False, "residual history not monotone"
    return worst <= 1e-8, f"worst planted-solution error {worst:.2e}"


def check_graphs() -> tuple[bool, str]:
    for n, eta, seed in ((10, 0.25, 3), (20, 0.3, 4), (12, 1.0, 5)):
        g = topology.generate_graph(n, eta, seed)
        if not _bfs_connected(g):
            return False, f"graph N={n} eta={eta} not connected"
        if len(g.edges) != topology.target_edge_count(n, eta):
            return False, f"edge count mismatch at N={n} eta={eta}"
    cfg = _quick_cfg(n_agents=6, eta=1.0, max_iters=12, stop_eps=0.0)
    graph, problem = build_problem(cfg)
    order = solver.run(problem, graph, cfg).transcript.senders.tolist()
    if order != [1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6]:
        return False, f"cyclic order wrong: {order}"
    # the walk replayed from the run's stream: one uniform per iteration
    # picks among the sender's sorted neighbours, agent 1 first
    cfg = _quick_cfg(n_agents=9, eta=0.4, max_iters=90, stop_eps=0.0,
                     variant=solver.Variant.WADMM_BASELINE)
    graph, problem = build_problem(cfg)
    tr = solver.run(problem, graph, cfg).transcript
    agent, walk = 1, []
    for u in np.random.default_rng(cfg.seed_solver).random(len(tr.senders)):
        nbrs = sorted({v for e in graph.edges if agent in e for v in e} - {agent})
        walk.append((agent, nbrs[int(u * len(nbrs))]))
        agent = walk[-1][1]
    if walk != list(zip(tr.senders.tolist(), tr.receivers.tolist())):
        return False, "random walk does not replay from the run's stream"
    return True, "connectivity, density, ring order and walk replay verified"


def check_gradients() -> tuple[bool, str]:
    rng = np.random.default_rng(9)
    h = 1e-5
    worst_r, worst_l = 0.0, 0.0
    ridge = objectives.RidgeObjective(objectives.generate_ridge_data(12, 3, 10))
    logi = objectives.LogisticObjective(objectives.generate_logistic_data(12, 3, 11, 12))
    for _ in range(25):
        x = rng.standard_normal(3)
        for obj, slot in ((ridge, "r"), (logi, "l")):
            g = obj.gradient(x)
            fd = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
            if slot == "r":
                worst_r = max(worst_r, rel)
            else:
                worst_l = max(worst_l, rel)
    ok = worst_r <= 1e-9 and worst_l <= 1e-5
    return ok, f"finite-diff rel err: quadratic {worst_r:.1e}, logistic {worst_l:.1e}"


def check_prox_stationarity() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    ridge = objectives.RidgeObjective(objectives.generate_ridge_data(15, 2, 14))
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(2)
        y = rng.standard_normal(2)
        rho_eff = float(rng.uniform(0.5, 20.0))
        x = ridge.prox(z, y, rho_eff)
        gap = ridge.gradient(x) - (y + rho_eff * (z - x))
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst <= 1e-10, f"worst prox stationarity gap {worst:.2e}"


def _quick_cfg(**kw) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.n_agents = kw.pop("n_agents", 8)
    cfg.eta = kw.pop("eta", 0.5)
    cfg.max_iters = kw.pop("max_iters", 400)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def check_token_conservation() -> tuple[bool, str]:
    worst = 0.0
    for variant, init, gamma, sigma in (
        (solver.Variant.IADMM, solver.InitSpec.zeros(), solver.GammaSpec.constant(1.0), 0.0),
        (solver.Variant.IADMM_RANDINIT, solver.InitSpec.uniform(0, 100),
         solver.GammaSpec.constant(1.0), 0.0),
        (solver.Variant.PIADMM1, solver.InitSpec.uniform(0, 100),
         solver.GammaSpec.uniform(0.9, 1.1), 0.0),
        (solver.Variant.PIADMM2, solver.InitSpec.uniform(0, 100),
         solver.GammaSpec.constant(1.0), 1e-3),
        (solver.Variant.WADMM_BASELINE, solver.InitSpec.zeros(),
         solver.GammaSpec.constant(1.0), 0.0),
    ):
        cfg = _quick_cfg(variant=variant, init=init, gamma=gamma, sigma=sigma,
                         stop_eps=0.0)
        graph, problem = build_problem(cfg)
        sim = solver.Simulation(problem, graph, cfg)
        for _ in range(cfg.max_iters):
            sim.step()
            worst = max(worst, solver.token_gap(sim.x, sim.y, sim.z, cfg.rho))
    return worst <= 1e-10, f"worst token drift {worst:.2e}"


def check_dual_gradient_identity() -> tuple[bool, str]:
    cfg = _quick_cfg(variant=solver.Variant.IADMM)
    graph, problem = build_problem(cfg)
    sim = solver.Simulation(problem, graph, cfg)
    worst = 0.0
    for _ in range(200):
        rec = sim.step()
        i = rec.agent - 1
        grad = problem.objectives[i].gradient(sim.x[i])
        worst = max(worst, float(np.linalg.norm(grad - sim.y[i])))
    return worst <= 1e-9, f"worst |grad - dual| after activation {worst:.2e}"


def _same_run(a: solver.RunResult, b: solver.RunResult) -> bool:
    return (a.n_iterations == b.n_iterations
            and np.array_equal(a.trace.values, b.trace.values, equal_nan=True)
            and np.array_equal(a.transcript.senders, b.transcript.senders)
            and np.array_equal(a.transcript.z_values, b.transcript.z_values)
            and all(np.array_equal(getattr(a, s), getattr(b, s)) for s in "xyz"))


def check_reductions() -> tuple[bool, str]:
    """piadmm1 with gamma = 1 and piadmm2 with sigma = 0 reproduce
    iadmm_randinit bit for bit; the three run as one batch, and each must
    also equal the same run alone."""
    configs = [
        _quick_cfg(variant=variant, init=solver.InitSpec.uniform(0, 100), gamma=gamma,
                   sigma=sigma, stop_eps=0.0, max_iters=200)
        for variant, gamma, sigma in (
            (solver.Variant.IADMM_RANDINIT, solver.GammaSpec.constant(1.0), 0.0),
            (solver.Variant.PIADMM1, solver.GammaSpec.constant(1.0), 0.0),
            (solver.Variant.PIADMM2, solver.GammaSpec.constant(1.0), 0.0),
        )
    ]
    graph, problem = build_problem(configs[0])
    batch = solver.run_batch([(problem, graph, c) for c in configs])
    ref = batch[0]
    for cfg, res in zip(configs, batch):
        if isinstance(res, Exception):
            return False, f"{cfg.variant.value} raised {type(res).__name__}: {res}"
        if not _same_run(res, solver.run(problem, graph, cfg)):
            return False, f"{cfg.variant.value} in a batch differs from the run alone"
        if not (all(np.array_equal(getattr(res, s), getattr(ref, s)) for s in "xyz")
                and np.array_equal(res.transcript.z_values, ref.transcript.z_values)):
            return False, f"{cfg.variant.value} does not reduce bit-exactly"
    return True, "unit step scale and zero noise reduce bit-exactly, batched and alone"


def step_equation_errors(problem: solver.Problem, config: solver.SolverConfig,
                         result: solver.RunResult) -> dict[str, float]:
    """Worst relative error of each scored iteration of `result` against the
    update functions applied to the recorded states before it, with rho_eff =
    rho * the trace's gamma.  piadmm2's noise, the recorded x less x_update,
    is checked by its norm against the trace's omega_norm instead of x."""
    h, values, noisy = result.history, result.trace.values, config.variant == "piadmm2"
    x, y, z = h.x0.copy(), h.y0.copy(), np.zeros(problem.dim)
    worst: dict[str, float] = {}
    for k, a in enumerate(h.agents[: len(values)] - 1):
        rho_eff = config.rho * (values[k, 5] if config.variant == "piadmm1" else 1.0)
        x_new, y_new, z_new = h.x_new[k], h.y_new[k], result.transcript.z_values[k]
        x_ref = solver.x_update(problem.objectives[a], x[a], y[a], z, rho_eff, config.x_update)
        y_ref = solver.y_update(y[a], z, x_new, rho_eff)
        z_ref = solver.z_update_incremental(z, x[a], y[a], x_new, y_new, config.rho, len(x))
        omega = np.linalg.norm(x_new - x_ref)  # piadmm2's noise
        first = ("omega", omega, values[k, 6]) if noisy else ("x", x_new, x_ref)
        for key, got, want in (first, ("y", y_new, y_ref), ("z", z_new, z_ref)):
            err = float(np.linalg.norm(got - want) / (np.linalg.norm(want) or 1.0))
            worst[key] = max(worst.get(key, 0.0), err)
        x[a], y[a], z = x_new, y_new, z_new
    return worst


def check_step_equations() -> tuple[bool, str]:
    """Short runs of every ridge variant, and a first-order ridge and
    logistic run, replayed through the update functions."""
    worst = 0.0
    for kind, variant, mode in [("ridge", v, "exact_prox") for v in solver.Variant] + [
            ("ridge", "iadmm", "first_order"), ("logistic", "piadmm1", "first_order")]:
        cfg = _quick_cfg(problem=kind, variant=solver.Variant(variant),
                         x_update=solver.XUpdateMode(mode), init=solver.InitSpec.uniform(-1, 1),
                         stop_eps=0.0, sigma=1e-2, gamma=solver.GammaSpec.uniform(0.9, 1.1))
        graph, problem = build_problem(cfg)
        result = solver.run(problem, graph, cfg)
        worst = max(worst, *step_equation_errors(problem, cfg, result).values())
        if worst > 1e-12 or result.n_iterations != cfg.max_iters:
            return False, f"{kind} {cfg.variant.value} {mode}: worst error {worst:.2e}"
    return True, f"worst relative step-equation error {worst:.2e}"


def token_rounding_error(problem: solver.Problem, graph: topology.Graph,
                         config: solver.SolverConfig, result: solver.RunResult,
                         wide=np.longdouble) -> float:
    """The largest distance of `result`'s tokens from the same run replayed
    in the `wide` float type, relative to the replay's largest |z|.  The
    replay steps the float64 operators of Simulation._operators, built for
    the run's own agent order and gamma column, from its start, with every
    state and product in `wide`; a logistic first-order step takes its
    gradient at the replay's state, in float64.  A run without noise
    (piadmm2's is not recorded)."""
    sim = solver.Simulation(problem, graph, config)
    agents, p = result.transcript.senders - 1, problem.dim
    gamma = result.trace.values[: len(agents), 5] if config.variant == "piadmm1" else 1.0
    rho_eff = np.broadcast_to(config.rho * gamma, len(agents))[:, None, None]
    ops = sim._operators((agents[:, None], np.zeros(1, dtype=np.int64)), rho_eff, sim._rho)
    ops = ops[:, 0].astype(wide)
    xy = np.hstack([result.history.x0, result.history.y0]).astype(wide)
    s = np.zeros(ops.shape[1], dtype=wide)
    s[-1] = 1
    tokens = np.empty((len(agents), p), dtype=wide)
    for j, a in enumerate(agents.tolist()):
        s[: 2 * p] = xy[a]
        if sim._blocks == 5:  # a logistic first-order step
            s[4 * p : 5 * p] = problem.objectives[a].gradient(xy[a, :p].astype(float))
        new = s @ ops[j]
        xy[a], tokens[j] = new[: 2 * p], new[2 * p :]
        s[2 * p : 3 * p] = tokens[j]
    err = np.abs(result.transcript.z_values - tokens).max() / np.abs(tokens).max()
    return float(err)


# runs of each token path: a ring transfer run, a piadmm1 run that draws
# gamma (the scan), a walk and a logistic first-order ring run
PRECISION_RUNS = {
    "transfer": dict(variant=solver.Variant.IADMM_RANDINIT, n_agents=50, max_iters=3000),
    "drawn gamma": dict(variant=solver.Variant.PIADMM1, n_agents=50, max_iters=3000),
    "walk": dict(variant=solver.Variant.WADMM_BASELINE, n_agents=20, max_iters=2000),
    "logistic first order": dict(variant=solver.Variant.IADMM_RANDINIT, n_agents=10,
                                 max_iters=2000, problem="logistic",
                                 x_update=solver.XUpdateMode.FIRST_ORDER),
}
# about 4 times the largest error measured on these runs with six seeds
# each (2.3e-12, a transfer run; the others at most 5.7e-13)
TOKEN_PRECISION_BOUND = 1e-11


def check_token_precision(wide=np.longdouble) -> tuple[bool, str]:
    """Every PRECISION_RUNS run's token_rounding_error within
    TOKEN_PRECISION_BOUND; where `wide` is no wider than float64 the check
    measures nothing and says so."""
    name = np.dtype(wide).name
    if np.finfo(wide).nmant <= np.finfo(np.float64).nmant:
        return True, f"measured nothing: {name} is no wider than float64 on this host"
    errors = {}
    for label, kw in PRECISION_RUNS.items():
        cfg = _quick_cfg(init=solver.InitSpec.uniform(-1, 1), stop_eps=0.0,
                         gamma=solver.GammaSpec.uniform(0.9, 1.1), **kw)
        graph, problem = build_problem(cfg)
        result = solver.run(problem, graph, cfg)
        errors[label] = token_rounding_error(problem, graph, cfg, result, wide)
    worst = max(errors.values())
    listed = ", ".join(f"{label} {err:.1e}" for label, err in errors.items())
    return worst <= TOKEN_PRECISION_BOUND, (
        f"token error relative to max |z| against a {name} replay of the same operators, "
        f"draws and agent order (the recurrence's rounding, not the operators'): {listed}")


def check_exact_attack() -> tuple[bool, str]:
    cfg = _quick_cfg(variant=solver.Variant.IADMM, max_iters=50 * 8, stop_eps=0.0)
    graph, problem = build_problem(cfg)
    result = solver.run(problem, graph, cfg)
    rep = adversary.exact_recursion_attack(result.transcript)
    adversary.score_report(rep, result.history)
    worst = max(
        max(rep.err_x[a].max(), rep.err_y[a].max()) for a in rep.agents
    )
    return worst <= 1e-9, f"worst reconstruction error {worst:.2e}"


def check_backward_bounds() -> tuple[bool, str]:
    cfg = _quick_cfg(variant=solver.Variant.IADMM, max_iters=50_000, stop_eps=1e-4)
    graph, problem = build_problem(cfg)
    result = solver.run(problem, graph, cfg)
    eps = cfg.stop_eps
    rep = adversary.terminal_backward_attack(result.transcript, eps=eps)
    adversary.score_report(rep, result.history)
    target = rep.agents[0]
    total = result.transcript.last_iteration // cfg.n_agents
    last = result.transcript.last_iteration
    for n in range(1, total + 1):
        k_rep = last - (n - 1) * cfg.n_agents
        bx, by = adversary.backward_error_bounds(n, total, eps, cfg.rho)
        if np.linalg.norm(rep.err_x[target][k_rep]) >= bx:
            return False, f"x bound violated at epoch {n}"
        if np.linalg.norm(rep.err_y[target][k_rep]) >= by:
            return False, f"y bound violated at epoch {n}"
    return True, f"bounds hold over {total} epochs"


def check_system_oracle() -> tuple[bool, str]:
    # short run, exact rows only: the pins are asymptotic and are exercised
    # by the longer converged runs in the test suite instead
    cfg = _quick_cfg(variant=solver.Variant.IADMM_RANDINIT,
                     init=solver.InitSpec.uniform(0, 10), max_iters=1_000)
    graph, problem = build_problem(cfg)
    result = solver.run(problem, graph, cfg)
    ms = adversary.build_ls_system(result.transcript, kkt_row=False,
                                   pin_last_cycle=False)
    resid = adversary.system_truth_residual(ms, result.history)
    full = adversary.build_ls_system(result.transcript)
    counts = adversary.count_equations_unknowns(
        "randinit", result.transcript.last_iteration, cfg.n_agents,
        kkt_row=True, pin_last_cycle=True,
    )
    if full.shape != counts.implemented:
        return False, f"system shape {full.shape} != counted {counts.implemented}"
    return resid <= 1e-9, f"truth residual through exact system rows {resid:.2e}"


def check_config_roundtrip() -> tuple[bool, str]:
    cfg = _quick_cfg(variant=solver.Variant.PIADMM1,
                     gamma=solver.GammaSpec.uniform(0.9, 1.1),
                     init=solver.InitSpec.uniform(0, 100))
    text = cfg.to_text()
    again = ExperimentConfig.from_text(text)
    return again.to_text() == text, "parse -> serialize -> parse is stable"


ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("dense_solve_residual", check_dense_solve),
    ("lsqr_planted_recovery", check_lsqr),
    ("graph_generation", check_graphs),
    ("gradient_finite_differences", check_gradients),
    ("prox_stationarity", check_prox_stationarity),
    ("token_conservation", check_token_conservation),
    ("dual_gradient_identity", check_dual_gradient_identity),
    ("step_equations", check_step_equations),
    ("reduction_identities", check_reductions),
    ("token_precision", check_token_precision),
    ("exact_recursion_attack", check_exact_attack),
    ("backward_error_bounds", check_backward_bounds),
    ("measurement_system_oracle", check_system_oracle),
    ("config_roundtrip", check_config_roundtrip),
]


def run_all(quiet: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append(CheckResult(name, ok, detail, dt))
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'} {name} ({dt:.2f}s): {detail}")
    return results
