"""The batched run engine against single runs.

`run_batch` steps every run that shares N, p, the x-update, the schedule
kind and the objective kind in one (N, B, p) loop.  A run inside a batch
must give exactly what `run` gives for it alone: same transcript, history,
trace and final states, bit for bit, however its neighbours in the batch
end.
"""

import csv
import io
import itertools
import math

import numpy as np
import pytest

from conftest import assert_fills_checkpoints, assert_identical, make_cfg
from ringadmm import harness, solver
from ringadmm.config import ConfigError, ExperimentConfig, apply_seed, parse_kv_text
from ringadmm.harness import build_problem, parse_sweep_spec, run_sweep
from ringadmm.objectives import (LogisticObjective, ProxUnsupportedError, RidgeObjective,
                                 generate_logistic_data)
from ringadmm.solver import GammaSpec, InitSpec, Problem, Variant, XUpdateMode, run, run_batch

KINDS = {
    "iadmm": dict(variant=Variant.IADMM),
    "iadmm_randinit": dict(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(-1, 1)),
    "piadmm1": dict(variant=Variant.PIADMM1, init=InitSpec.uniform(-1, 1),
                    gamma=GammaSpec.uniform(0.9, 1.1)),
    "piadmm2": dict(variant=Variant.PIADMM2, init=InitSpec.uniform(-1, 1), sigma=1e-2),
    "wadmm": dict(variant=Variant.WADMM_BASELINE),
    "logistic": dict(problem="logistic", x_update=XUpdateMode.FIRST_ORDER),
    "logistic_wadmm": dict(problem="logistic", x_update=XUpdateMode.FIRST_ORDER,
                           variant=Variant.WADMM_BASELINE),
}


def spy_batches(monkeypatch, record=len) -> list:
    """Record the width (or `record` of the runs) of every batch the engine starts."""
    seen = []
    original = solver.Simulation._batch.__func__

    def batch(cls, runs):
        seen.append(record(runs))
        return original(cls, runs)

    monkeypatch.setattr(solver.Simulation, "_batch", classmethod(batch))
    return seen


def test_run_in_a_batch_equals_the_run_alone(monkeypatch):
    specs = []
    for kind, seed in itertools.product(KINDS, (1, 2, 3)):
        cfg = make_cfg(n_agents=7, max_iters=150, seed_graph=seed, seed_data=seed + 10,
                       seed_solver=seed + 20, **KINDS[kind])
        graph, problem = build_problem(cfg)
        specs.append((problem, graph, cfg))
    widths = spy_batches(monkeypatch)
    results = run_batch(specs)
    # ridge cyclic (4 variants), ridge random walk, logistic cyclic and
    # logistic random walk, three seeds each
    assert sorted(widths) == [3, 3, 3, 12]
    for spec, res in zip(specs, results):
        assert_identical(res, run(*spec))


def test_mixed_kinds_go_to_separate_batches():
    cyclic = make_cfg(n_agents=5)
    walk = make_cfg(n_agents=5, variant=Variant.WADMM_BASELINE)
    runs = [solver._Run(*build_problem(c)[::-1], c) for c in (cyclic, walk)]
    assert runs[0].key() != runs[1].key()
    with pytest.raises(ValueError, match="a batch needs"):
        solver.Simulation._batch(runs)


def faulty_run(state_fault, seed, start=math.inf, factor=1.0, **overrides):
    """A ridge run whose recorded states are scaled by `factor` from
    iteration `start` on (nan: a non-finite state; 1e200: a finite state
    whose metrics overflow); each call of the function it returns gives the
    run's inputs."""
    cfg = make_cfg(n_agents=8, seed_data=seed, seed_solver=seed + 1, **overrides)
    graph, problem = build_problem(cfg)
    return lambda: (state_fault(problem, start, lambda out: out * factor), graph, cfg)


def ragged_faulty_runs(state_fault) -> list:
    return [
        faulty_run(state_fault, 1, stop_eps=1e-6, max_iters=50_000),  # stops on stop_eps
        faulty_run(state_fault, 2, start=13, factor=math.nan),  # non-finite state, mid-chunk
        faulty_run(state_fault, 3, start=70, factor=1e200),     # metrics overflow
        faulty_run(state_fault, 4, max_iters=50),               # a short max_iters
        faulty_run(state_fault, 5, max_iters=3000, variant=Variant.PIADMM1,
                   init=InitSpec.uniform(-1, 1), gamma=GammaSpec.uniform(0.9, 1.1)),
        faulty_run(state_fault, 6, max_iters=3001, variant=Variant.PIADMM2,
                   init=InitSpec.uniform(-1, 1), sigma=1e-3),
    ]


def test_ragged_batch_rows_end_as_they_would_alone(monkeypatch, state_fault):
    rows = ragged_faulty_runs(state_fault)
    widths = spy_batches(monkeypatch)
    batch = run_batch([make() for make in rows])
    assert widths == [len(rows)]
    reasons = [r.trace.stop_reason for r in batch]
    assert reasons[0] == "primal_eps"
    assert reasons[1].startswith("diverged: non-finite state at iteration 13 ")
    assert reasons[2].startswith("diverged: metrics overflowed at iteration 70 ")
    assert [r.n_iterations for r in batch[3:]] == [50, 3000, 3001]
    assert len(batch[2].transcript.senders) == batch[2].n_iterations + 1
    for make, res in zip(rows, batch):
        assert_identical(res, run(*make()))


def test_ragged_batch_rows_fill_their_checkpoints_and_end_alike(state_fault):
    # the stop_eps stop, the NaN at 13 and the overflow at 70 are not
    # checkpoint rows for every = 8
    every = 8
    rows = ragged_faulty_runs(state_fault)
    full = run_batch([make() for make in rows])
    got = run_batch([(*make(), every) for make in rows])
    assert [r.n_iterations % every for r in got[:3]] != [0, 0, 0]
    for res, want in zip(got, full):
        assert_fills_checkpoints(res, want, every)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("factor", [math.nan, 1e200])
def test_ending_on_a_chunks_first_row_keeps_the_last_row(factor, chunk, state_fault):
    # a non-finite state or overflowed metrics on the first row of a chunk
    # end the trace on the previous chunk's last row, which no checkpoint
    # asks for; max_iters lets the run reach that chunk
    start = chunk * solver._block_rows(8, 1)
    make = faulty_run(state_fault, 1, start=start, factor=factor, max_iters=start + 10)
    full = run(*make())
    got = run(*make(), every=5)
    assert full.n_iterations == start and (start - 1) % 5
    assert full.trace.stop_reason.startswith(
        "diverged: non-finite state" if math.isnan(factor) else "diverged: metrics overflowed")
    assert_fills_checkpoints(got, full, 5)
    assert not np.isnan(got.trace.final.accuracy)


def ridge_run(seed, **overrides):
    cfg = make_cfg(n_agents=8, seed_data=seed, seed_solver=seed + 1, **overrides)
    graph, problem = build_problem(cfg)
    return problem, graph, cfg


def test_ragged_operator_batch_rows_end_as_they_would_alone(monkeypatch):
    # plain ridge objectives step as precomputed operators; each end of a
    # row rebuilds the operators of the transfer rows that stay (a drawn-
    # gamma row builds its own per window)
    randinit = dict(init=InitSpec.uniform(-1, 1))
    first_order = dict(x_update=XUpdateMode.FIRST_ORDER, max_iters=5000)
    rows = [
        ridge_run(1, stop_eps=1e-6, max_iters=50_000),      # stops on stop_eps
        ridge_run(2, max_iters=50),                          # a short max_iters
        ridge_run(3, max_iters=3000, variant=Variant.PIADMM1, gamma=GammaSpec.uniform(0.9, 1.1),
                  **randinit),
        ridge_run(4, max_iters=3001, variant=Variant.PIADMM2, sigma=1e-3, **randinit),
        ridge_run(5, max_iters=700, variant=Variant.IADMM_RANDINIT, **randinit),
        # a second piadmm1 row, ending at a length of its own
        ridge_run(8, max_iters=1440, variant=Variant.PIADMM1, gamma=GammaSpec.uniform(0.5, 2.0),
                  **randinit),
        ridge_run(6, rho=0.01, **first_order),               # diverges
        ridge_run(7, **first_order),                         # converges
    ]
    widths = spy_batches(monkeypatch)
    rebuilt = []
    columns = solver.Simulation._columns

    def spy_columns(sim):
        columns(sim)
        rebuilt.append((len(sim._alive), sim._transfers, sim._ops.shape[:2]))

    monkeypatch.setattr(solver.Simulation, "_columns", spy_columns)
    batch = run_batch(rows)
    assert sorted(widths) == [2, 6]
    assert all(shape == (8, t) for _, t, shape in rebuilt)
    assert any(t < width for width, t, _ in rebuilt)  # while the drawn-gamma row is in
    assert [w for w, _, _ in rebuilt] == [6, 5, 4, 3, 2, 1, 2, 1]  # every row ends alone
    reasons = [r.trace.stop_reason for r in batch]
    assert reasons[0] == "primal_eps" and reasons[7] == "max_iters"
    assert reasons[6].startswith("diverged: ")
    assert [r.n_iterations for r in batch[1:6]] == [50, 3000, 3001, 700, 1440]
    assert batch[0].n_iterations not in (50, 700, 1440, 3000, 3001)
    monkeypatch.undo()
    for spec, res in zip(rows, batch):
        assert_identical(res, run(*spec))


def test_ragged_walk_batch_rows_end_as_they_would_alone(monkeypatch):
    # each walking row draws its walk from its own stream, in chunks whose
    # sizes follow the batch's width and the rows that stay
    walk = dict(variant=Variant.WADMM_BASELINE)
    rows = [
        ridge_run(1, stop_eps=1e-6, max_iters=50_000, **walk),  # stops on stop_eps
        ridge_run(2, max_iters=50, **walk),
        ridge_run(3, max_iters=333, **walk),
        ridge_run(4, max_iters=700, **walk),
    ]
    widths = spy_batches(monkeypatch)
    batch = run_batch(rows)
    assert widths == [len(rows)]
    assert batch[0].trace.stop_reason == "primal_eps"
    assert batch[0].n_iterations not in (50, 333, 700)
    assert [r.n_iterations for r in batch[1:]] == [50, 333, 700]
    for spec, res in zip(rows, batch):
        assert_identical(res, run(*spec))


def test_a_batch_allocates_no_rows_past_its_shortest_run(monkeypatch):
    # a chunk ends where the batch's shortest run ends, rounded up to whole
    # cycles on a ring of 8 agents: the 50-iteration run's block holds 56
    # rows, not the 1,024 of a full chunk
    rows = [ridge_run(1, max_iters=50), ridge_run(2, max_iters=5000)]
    batches = spy_batches(monkeypatch, list)
    batch = run_batch(rows)
    ((short, long),) = batches
    assert [len(block.agents) for block, _ in short.blocks] == [56]
    assert len(long.blocks[0][0].agents) == 56
    assert [r.n_iterations for r in batch] == [50, 5000]
    monkeypatch.undo()
    for spec, res in zip(rows, batch):
        assert_identical(res, run(*spec))


def test_errors_stay_with_their_run():
    good = make_cfg(n_agents=6, max_iters=40)
    floor = make_cfg(n_agents=6, max_iters=40, variant=Variant.PIADMM1, rho=1e-3,
                     gamma=GammaSpec.floor(1.01))
    specs = [(p, g, c) for c in (good, floor, good)
             for g, p in [build_problem(c)]]
    results = run_batch(specs)
    assert isinstance(results[1], ValueError) and "need rho > L" in str(results[1])
    assert_identical(results[0], run(*specs[0]))
    assert_identical(results[2], results[0])



def test_logistic_exact_prox_names_the_first_order_update():
    cfg = make_cfg(n_agents=6, max_iters=40, problem="logistic",
                   x_update=XUpdateMode.EXACT_PROX)
    graph, problem = build_problem(cfg)
    with pytest.raises(ProxUnsupportedError, match="first_order"):
        run(problem, graph, cfg)
    with pytest.raises(ProxUnsupportedError, match="first_order"):
        solver.Simulation(problem, graph, cfg)  # when its batch starts
    good = make_cfg(n_agents=6, max_iters=40, **KINDS["logistic"])
    specs = [(problem, graph, cfg), (*build_problem(good)[::-1], good)]
    results = run_batch(specs)
    assert isinstance(results[0], ProxUnsupportedError) and "first_order" in str(results[0])
    assert_identical(results[1], run(*specs[1]))


class _SubclassedRidge(RidgeObjective):
    pass


def test_unsupported_problems_fail_alone():
    # the engine steps all-RidgeObjective and one-sample-count
    # all-LogisticObjective problems only
    cfg = make_cfg(n_agents=6, max_iters=40)
    graph, ridge = build_problem(cfg)
    _, logistic = build_problem(make_cfg(n_agents=6, problem="logistic"))
    mixed = Problem(ridge.objectives[:3] + logistic.objectives[3:], ridge.x_star)
    subclassed = Problem([_SubclassedRidge(f.data) for f in ridge.objectives], ridge.x_star)
    two_sizes = Problem([LogisticObjective(generate_logistic_data(10 + a % 2, 2, 0, a))
                         for a in range(6)], ridge.x_star)
    bad = [mixed, subclassed, two_sizes]
    results = run_batch([(p, graph, cfg) for p in bad] + [(ridge, graph, cfg)])
    for res in results[:-1]:
        assert isinstance(res, ValueError) and "a problem needs all RidgeObjective" in str(res)
    assert_identical(results[-1], run(ridge, graph, cfg))


BASE = """\
p = 2
b = 20
network.n_agents = 6
network.eta = 0.5
solver.max_iters = 700
solver.stop_eps = 0
solver.init = uniform:-1,1
solver.sigma = 0.01
"""
GRID = """\
solver.variant = iadmm, piadmm1, wadmm
solver.x_update = exact_prox, first_order
solver.rho = 0.01, 10
solver.gamma = uniform:0.9,1.1, descent_floor:1.01
network.eta = 0.5, 2.0
seed = 1, 2
"""


def reference_sweep(base_text: str, sweep_text: str) -> tuple[str, list[str]]:
    """The sweep as one solver.run per point, its rows read off the full
    trace, and every point's outcome."""
    grid, seeds = parse_sweep_spec(sweep_text)
    keys = sorted(grid)
    rows, outcomes = [], []
    points = itertools.product(itertools.product(*(grid[k] for k in keys)), seeds)
    for run_index, (combo, seed) in enumerate(points):
        kv = {**parse_kv_text(base_text), **dict(zip(keys, combo))}
        overrides = ";".join(f"{k}={v}" for k, v in zip(keys, combo))
        try:
            cfg = apply_seed(ExperimentConfig.from_mapping(kv), seed)
            cfg.validate()
            graph, problem = build_problem(cfg)
            harness._check_problem(cfg, problem)
            result = run(problem, graph, cfg)
        except Exception as exc:
            rows.append([run_index, overrides, seed] + [""] * 8
                        + [f"error:{type(exc).__name__}:{exc}"])
            outcomes.append("error")
            continue
        outcomes.append(result.trace.stop_reason)
        for k in result.trace.checkpoints(cfg.n_agents).tolist():
            rec = result.trace.record(k)
            rows.append([run_index, overrides, seed, rec.k, rec.agent, repr(rec.accuracy),
                         repr(rec.aug_lagrangian), repr(rec.r_primal), repr(rec.r_dualstep),
                         repr(rec.r_gradsum), rec.comm_units, "ok"])
    out = io.StringIO()
    out.write("#schema=1\n")
    w = csv.writer(out)
    w.writerow(["run_index", "overrides", "seed", "k", "agent", "accuracy", "lagrangian",
                "r_primal", "r_dualstep", "r_gradsum", "comm_units", "status"])
    w.writerows(rows)
    return out.getvalue(), outcomes


def test_sweep_csv_matches_a_per_point_loop(tmp_path):
    want, outcomes = reference_sweep(BASE, GRID)
    assert "error" in outcomes and "max_iters" in outcomes
    assert any(o.startswith("diverged") for o in outcomes)
    path = tmp_path / "sweep.csv"
    failures = run_sweep(BASE, GRID, str(path))
    assert failures == outcomes.count("error")
    with open(path, newline="") as fh:
        assert fh.read() == want


# ---- problem sharing inside one run_configs call


def count_builds(monkeypatch) -> list[ExperimentConfig]:
    """Record every config harness.build_problem is called with."""
    built = []
    original = harness.build_problem

    def build(cfg):
        built.append(cfg)
        return original(cfg)

    monkeypatch.setattr(harness, "build_problem", build)
    return built


def test_run_configs_builds_each_problem_once(monkeypatch):
    cfgs = [make_cfg(n_agents=6, max_iters=60, seed_graph=seed, seed_data=seed + 10,
                     seed_solver=seed + 20, **KINDS[kind])
            for kind in ("iadmm", "iadmm_randinit", "piadmm1", "piadmm2", "wadmm")
            for seed in (1, 2)]
    built = count_builds(monkeypatch)
    results = harness.run_configs(cfgs)
    assert [c.seed_graph for c in built] == [1, 2]
    for cfg, res in zip(cfgs, results):
        assert_identical(res, run(*build_problem(cfg)[::-1], cfg))


def test_points_differing_in_one_key_field_are_not_shared(monkeypatch):
    base = dict(n_agents=6, max_iters=40, x_update=XUpdateMode.FIRST_ORDER)
    changes = [{}, {"problem": "logistic"}, {"n_agents": 7}, {"p": 3}, {"b": 11},
               {"eta": 0.6}, {"seed_graph": 5}, {"seed_data": 5}]
    cfgs = [make_cfg(**{**base, **change}) for change in changes]
    built = count_builds(monkeypatch)
    results = harness.run_configs(cfgs)
    assert len(built) == len(cfgs)
    for cfg, res in zip(cfgs, results):
        assert_identical(res, run(*build_problem(cfg)[::-1], cfg))


def test_identical_points_match_the_run_alone(monkeypatch):
    # the shared Problem serves four runs in one batch; none may change it
    cfg = make_cfg(n_agents=7, max_iters=120, seed_solver=4, **KINDS["piadmm2"])
    other = make_cfg(n_agents=7, max_iters=120, seed_solver=4, **KINDS["piadmm1"])
    graph, problem = build_problem(cfg)
    alone = run(problem, graph, cfg)
    built = count_builds(monkeypatch)
    results = harness.run_configs([cfg, other, cfg, other])
    assert len(built) == 1
    assert_identical(results[0], alone)
    assert_identical(results[2], alone)
    assert_identical(results[3], results[1])


def test_invalid_point_beside_valid_ones_fails_alone(monkeypatch):
    good = make_cfg(n_agents=6, max_iters=80, seed_data=3)
    bad_config = make_cfg(n_agents=6, max_iters=80, seed_data=3, rho=-1.0)
    unbuildable = make_cfg(n_agents=6, max_iters=80, seed_data=4)
    original = harness.build_problem

    def build(cfg):
        if cfg.seed_data == 4:
            raise RuntimeError("no data for this seed")
        return original(cfg)

    monkeypatch.setattr(harness, "build_problem", build)
    results = harness.run_configs([bad_config, good, unbuildable, good, unbuildable])
    assert isinstance(results[0], ConfigError)
    assert isinstance(results[2], RuntimeError) and isinstance(results[4], RuntimeError)
    alone = run(*original(good)[::-1], good)
    assert_identical(results[1], alone)
    assert_identical(results[3], alone)


def test_ridge_objectives_built_alone_run_like_a_shared_stack():
    cfg = make_cfg(n_agents=6, max_iters=90, **KINDS["piadmm1"])
    graph, problem = build_problem(cfg)
    alone = Problem([RidgeObjective(f.data) for f in problem.objectives], problem.x_star)
    runs = [(p, graph, cfg) for p in (problem, alone)]
    stacked, gathered = run_batch(runs)
    assert_identical(gathered, stacked)
    assert_identical(stacked, run(*runs[0]))


# ---- a sweep point computes only the rows it writes


def count_records(monkeypatch) -> list[str]:
    """Record every Transcript and StateHistory the solver builds."""
    built = []
    for name in ("Transcript", "StateHistory"):
        original = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *a, name=name, original=original, **kw:
                            built.append(name) or original(*a, **kw))
    return built


def test_sweep_builds_no_transcript_or_history(monkeypatch, tmp_path):
    built = count_records(monkeypatch)
    failures = run_sweep(BASE, GRID, str(tmp_path / "sweep.csv"))
    assert failures and built == []
    cfg = make_cfg(n_agents=6, max_iters=40)
    result = run(*build_problem(cfg)[::-1], cfg)
    assert built == []
    result.history  # either record builds both, once
    result.transcript
    assert built == ["Transcript", "StateHistory"]


def test_run_configs_results_build_their_records_as_run_alone():
    # a ring stopping on stop_eps, a walk, a drawn-gamma ring, a noisy
    # ring and a short ring, each with its records read in either order
    cfgs = [make_cfg(n_agents=6, stop_eps=1e-6, max_iters=5000, seed_data=1),
            make_cfg(n_agents=6, max_iters=333, seed_data=2, **KINDS["wadmm"]),
            make_cfg(n_agents=6, max_iters=300, seed_data=3, **KINDS["piadmm1"]),
            make_cfg(n_agents=6, max_iters=301, seed_data=4, **KINDS["piadmm2"]),
            make_cfg(n_agents=6, max_iters=50, seed_data=5, **KINDS["iadmm_randinit"])]
    results = harness.run_configs(cfgs)
    assert results[0].trace.stop_reason == "primal_eps"
    for i, (cfg, res) in enumerate(zip(cfgs, results)):
        assert (res.history if i % 2 else res.transcript) is not None
        assert_identical(res, run(*build_problem(cfg)[::-1], cfg))


def bad_base(line: str) -> str:
    return BASE + line + "\n"


@pytest.mark.parametrize("base, grid", [
    # a bad base value that no point overrides: every point fails on it
    (bad_base("solver.rho = ten"), "solver.variant = iadmm, wadmm\nseed = 1, 2\n"),
    # a bad base value that every point overrides: every point runs
    (bad_base("solver.rho = ten"), "solver.rho = 0.01, 10\nseed = 1, 2\n"),
    # a bad base value and a bad override: a point reports the first of its
    # bad keys in KEYS order (network.eta before solver.x_update before
    # solver.stop_eps), and a bad seeds.* key of the base fails validate()
    # before the point's seed replaces it
    (bad_base("solver.x_update = sideways"),
     "network.eta = 0.5, wide\nsolver.stop_eps = 0, tiny\nseed = 3\n"),
    (bad_base("seeds.graph = -1"), "solver.rho = 1, 2\nseed = 4\n"),
], ids=["bad_base", "overridden", "bad_base_and_override", "bad_base_seed"])
def test_sweep_parses_its_base_once_with_the_rows_of_a_per_point_parse(base, grid, tmp_path):
    want, outcomes = reference_sweep(base, grid)
    path = tmp_path / "sweep.csv"
    assert run_sweep(base, grid, str(path)) == outcomes.count("error")
    with open(path, newline="") as fh:
        assert fh.read() == want


def test_sweep_point_errors_name_the_first_bad_key_in_key_order(tmp_path):
    path = tmp_path / "sweep.csv"
    run_sweep(bad_base("solver.x_update = sideways"),
              "network.eta = 0.5, wide\nsolver.stop_eps = 0, tiny\nseed = 3\n", str(path))
    with open(path, newline="") as fh:
        status = [row[-1] for row in csv.reader(fh.readlines()[2:])]
    assert status == ["error:ConfigError:solver.x_update: unknown mode 'sideways'"] * 2 \
        + ["error:ConfigError:network.eta: expected number, got 'wide'"] * 2


def accumulated_table(agents: np.ndarray, n: int) -> np.ndarray:
    """The (B, c + 1, N) last-update table of a chunk's 0-based (B, c)
    agents: row r + 1 holds N plus each agent's latest chunk row at or
    before r, or the agent itself before its first."""
    width, c = agents.shape
    table = np.empty((width, c + 1, n), dtype=np.int64)
    table[:] = np.arange(n)
    table[np.arange(width)[:, None], np.arange(c) + 1, agents] = np.arange(c) + n
    return np.maximum.accumulate(table, axis=1)


@pytest.mark.parametrize("n_agents, p, max_iters, every, steps", [
    (7, 2, [50, 333, 1500], [1, 7, 3], 0),     # whole cycles; short last chunks
    (7, 40, [53, 400, 401], [1, 5, 7], 0),     # segments of 5 positions: starts mid-cycle
    (130, 2, [300, 451], [130, 1], 0),         # N larger than a segment (100 at p = 2)
    (12, 40, [1500], [1], 17),                 # after step(), in segments of 5
])
def test_ring_latest_updates_equal_the_accumulated_table(n_agents, p, max_iters, every, steps,
                                                        monkeypatch):
    metrics, ring_after = solver.Simulation._metrics, solver._ring_after
    chunks, calls = [], []

    def spy_metrics(sim, chunk):
        chunks.append(sim._block.agents.T - 1)
        return metrics(sim, chunk)

    def spy_ring_after(a0, n, r, a):
        got, table = ring_after(a0, n, r, a), accumulated_table(chunks[-1], n)
        r, a = np.broadcast_arrays(r, a)
        assert (got == table[:, r + 1, a]).all()  # where _metrics reads it
        rows = np.arange(-1, table.shape[1] - 1)[:, None]
        assert (ring_after(a0, n, rows, np.arange(n)) == table).all()  # and everywhere
        calls.append(a0)
        return got

    monkeypatch.setattr(solver.Simulation, "_metrics", spy_metrics)
    monkeypatch.setattr(solver, "_ring_after", spy_ring_after)
    specs = [(*build_problem(cfg)[::-1], cfg, e) for i, (k, e) in enumerate(zip(max_iters, every))
             for cfg in [make_cfg(n_agents=n_agents, p=p, max_iters=k, seed_data=i,
                                  seed_solver=i + 9, stop_eps=1e-9 if i == 0 else 0.0,
                                  **KINDS[("iadmm_randinit", "piadmm1", "piadmm2")[i % 3]])]]
    if steps:
        sim = solver.Simulation(*specs[0])
        for _ in range(steps):
            sim.step()
        results = [sim.run()]
    else:
        results = run_batch(specs)
    assert calls
    if p == 40:
        assert any(a0 % n_agents for a0 in calls)  # some chunk starts mid-cycle
    monkeypatch.undo()
    for spec, res in zip(specs, results):
        assert_identical(res, run(*spec))
