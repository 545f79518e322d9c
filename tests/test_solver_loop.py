"""The chunked run loop against the one-iteration step API and the step
equations.

`Simulation.run` advances a chunk of iterations and scores them in one
vectorised pass; `Simulation.step` computes the same chunks and returns them
one iteration at a time.  Both must produce the same records, states and
stopping point bit for bit.  Every
recorded iteration must also follow x_update, y_update and
z_update_incremental applied to the states before it, whether the loop took
the iteration as a precomputed operator (ridge, and logistic with the
gradient as an input) or through those functions.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_fills_checkpoints, assert_identical, aug_lagrangian, bits, make_cfg
from ringadmm.harness import build_problem
from ringadmm.solver import (
    DivergenceError,
    _block_rows,
    _segment,
    GammaSpec,
    InitSpec,
    Simulation,
    Variant,
    XUpdateMode,
    run,
    run_batch,
)
from ringadmm.verify import step_equation_errors

VARIANT_CONFIGS = {
    "iadmm": dict(variant=Variant.IADMM),
    "iadmm_randinit": dict(variant=Variant.IADMM_RANDINIT, init=InitSpec.uniform(-1, 1)),
    "piadmm1": dict(variant=Variant.PIADMM1, init=InitSpec.uniform(-1, 1),
                    gamma=GammaSpec.uniform(0.9, 1.1)),
    "piadmm2": dict(variant=Variant.PIADMM2, init=InitSpec.uniform(-1, 1), sigma=1e-2),
    "wadmm": dict(variant=Variant.WADMM_BASELINE),
    "logistic": dict(problem="logistic", x_update=XUpdateMode.FIRST_ORDER),
}


STEP_KINDS = {**VARIANT_CONFIGS, "first_order": dict(x_update=XUpdateMode.FIRST_ORDER)}
# the logistic operator, which takes each window's gradients as an input block
STEP_KINDS.update({f"logistic_{k}": {**VARIANT_CONFIGS[k], **VARIANT_CONFIGS["logistic"]}
                   for k in ("iadmm_randinit", "piadmm1", "piadmm2", "wadmm")})
# transfer runs over two ring segments (100 + 20 positions at p = 2) and three cycles
SEGMENTS = dict(n_agents=120, max_iters=3 * 120 + 40)
STEP_KINDS.update({f"segments_{k}": {**v, **SEGMENTS} for k, v in {
    "iadmm_randinit": VARIANT_CONFIGS["iadmm_randinit"],
    "piadmm2": VARIANT_CONFIGS["piadmm2"],
    "piadmm1_constant": {**VARIANT_CONFIGS["piadmm1"], "gamma": GammaSpec.constant(1.5)},
    "logistic_iadmm_randinit": STEP_KINDS["logistic_iadmm_randinit"],
}.items()})


@pytest.mark.parametrize("kind", sorted(STEP_KINDS))
def test_recorded_iterations_follow_the_step_equations(kind):
    # an operator that folds the noise or the step scale in wrongly moves
    # the states by far less than the other tests notice
    cfg = make_cfg(**{"n_agents": 7, "max_iters": 150, **STEP_KINDS[kind]})
    graph, problem = build_problem(cfg)
    if kind.startswith("segments_"):
        assert _segment(problem.dim) < cfg.n_agents < 2 * _segment(problem.dim)
    res = run(problem, graph, cfg)
    assert res.trace.stop_reason == "max_iters"
    errors = step_equation_errors(problem, cfg, res)
    assert set(errors) == {"omega" if kind.endswith("piadmm2") else "x", "y", "z"}
    assert max(errors.values()) <= 1e-12, errors


def record_rows(records) -> np.ndarray:
    return np.array([dataclasses.astuple(r) for r in records], dtype=float)


def step_loop(problem, graph, config):
    """Reference: step() one iteration at a time, with run()'s stop rule.

    Returns the simulation, its records and tokens, and the divergence
    message if one was raised."""
    sim = Simulation(problem, graph, config)
    records, tokens, error = [], [], None
    try:
        for _ in range(config.max_iters):
            rec = sim.step()
            records.append(rec)
            tokens.append(sim.z.copy())
            if rec.r_primal < config.stop_eps:
                break
    except DivergenceError as exc:
        error = str(exc)
    return sim, records, tokens, error


def assert_same_run(res, sim, records, tokens):
    assert res.n_iterations == sim.k == len(records)
    assert np.array_equal(record_rows(res.trace.records), record_rows(records),
                          equal_nan=True)
    assert np.array_equal(res.transcript.z_values[: len(tokens)], np.array(tokens))
    assert np.array_equal(res.x, sim.x)
    assert np.array_equal(res.y, sim.y)
    assert np.array_equal(res.z, sim.z)


@pytest.mark.parametrize("kind", sorted(VARIANT_CONFIGS))
def test_run_records_equal_step_loop(kind):
    cfg = make_cfg(n_agents=7, max_iters=100, **VARIANT_CONFIGS[kind])
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    sim, records, tokens, error = step_loop(problem, graph, cfg)
    assert error is None and res.trace.stop_reason == "max_iters"
    assert_same_run(res, sim, records, tokens)
    assert np.array_equal(res.transcript.senders, [r.agent for r in records])


@pytest.mark.parametrize("kind", ["piadmm2", "wadmm", "logistic"])
def test_metrics_match_per_iteration_formulas(kind):
    # step() scores through the same pass as run(), which rebuilds the states
    # from the recorded updates; check it against formulas on the live states
    cfg = make_cfg(n_agents=7, max_iters=60, **VARIANT_CONFIGS[kind])
    graph, problem = build_problem(cfg)
    sim = Simulation(problem, graph, cfg)
    x0 = sim.x.copy()
    init_dist = np.linalg.norm(x0 - problem.x_star, axis=1)
    for _ in range(cfg.max_iters):
        y_before = sim.y.copy()
        rec = sim.step()
        i = rec.agent - 1
        gap_norms = np.linalg.norm(sim.z - sim.x, axis=1)
        ref_acc = np.mean(np.linalg.norm(sim.x - problem.x_star, axis=1) / init_dist)
        assert rec.accuracy == pytest.approx(ref_acc, rel=1e-13)
        assert rec.aug_lagrangian == pytest.approx(
            aug_lagrangian(problem.objectives, sim.x, sim.y, sim.z, cfg.rho), rel=1e-12)
        assert rec.r_primal == pytest.approx(gap_norms.max(), rel=1e-13)
        assert rec.r_dualstep == pytest.approx(np.linalg.norm(sim.y[i] - y_before[i]),
                                               rel=1e-13)
        assert rec.r_gradsum == pytest.approx(np.linalg.norm(sim.y.sum(axis=0)),
                                              rel=1e-12, abs=1e-14)


def test_stop_in_the_middle_of_a_chunk():
    cfg = make_cfg(n_agents=8, max_iters=50_000, stop_eps=1e-6)
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    assert res.trace.stop_reason == "primal_eps"
    assert res.n_iterations % cfg.n_agents != 0  # the crossing is not at a chunk end
    sim, records, tokens, error = step_loop(problem, graph, cfg)
    assert error is None
    assert_same_run(res, sim, records, tokens)
    assert len(res.transcript.senders) == res.n_iterations


@pytest.mark.parametrize("kind", ["iadmm", "wadmm", "piadmm1"])
def test_a_stop_eps_run_ends_as_with_r_primal_scored_on_every_row(kind, monkeypatch):
    """The metrics pass scores r_primal in full only on the rows where the
    receiver's gap, a lower bound of it, is below stop_eps.  A ring run, a
    walk and a gamma-drawing run, alone and in a batch beside a run without
    stop_eps, must end as when every row is scored (metrics not proved
    finite)."""
    cfg = make_cfg(n_agents=8, max_iters=50_000, stop_eps=1e-6, **VARIANT_CONFIGS[kind])
    graph, problem = build_problem(cfg)
    other = make_cfg(n_agents=8, max_iters=3000, seed_solver=4, **VARIANT_CONFIGS[kind])
    specs = [(problem, graph, cfg, 8), (problem, graph, other)]
    got = [run(*specs[0])] + run_batch(specs)
    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "_finite_metrics", lambda self, *chunk: False)
        want = [run(*specs[0])] + run_batch(specs)
    assert [r.trace.stop_reason for r in got] == ["primal_eps", "primal_eps", "max_iters"]
    for g, w in zip(got, want):
        assert_identical(g, w)


def test_metric_overflow_reports_the_same_iteration():
    # first-order steps with rho far below the curvature blow up; the
    # metrics overflow while the states are still finite
    cfg = make_cfg(x_update=XUpdateMode.FIRST_ORDER, rho=0.01, max_iters=5000)
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    sim, records, tokens, error = step_loop(problem, graph, cfg)
    assert error is not None and "metrics overflowed" in error
    assert res.trace.stop_reason == f"diverged: {error}"
    assert res.trace.diverged
    # the overflowing iteration was transmitted but not scored
    assert len(res.transcript.senders) == len(records) + 1
    assert np.array_equal(res.transcript.z_values[-1], sim.z)
    assert_same_run(res, sim, records, tokens)


def broken(state_fault, problem):
    """A copy of `problem` whose recorded states are NaN from iteration 13
    on, mid-chunk."""
    return state_fault(problem, 13, lambda out: out * math.nan)


def test_non_finite_state_reports_the_same_iteration(state_fault):
    cfg = make_cfg(n_agents=8, max_iters=200)
    graph, problem = build_problem(cfg)
    res = run(broken(state_fault, problem), graph, cfg)
    sim, records, tokens, error = step_loop(broken(state_fault, problem), graph, cfg)
    assert error == "non-finite state at iteration 13 (agent 6); " \
                    "the configured step scale is likely unstable"
    assert res.trace.stop_reason == f"diverged: {error}"
    # the non-finite iteration is dropped: states are those before it
    assert len(res.transcript.senders) == len(records) == 13
    assert_same_run(res, sim, records, tokens)


def test_early_stop_allocates_nothing_of_max_iters_size():
    cfg = make_cfg(max_iters=10**7, stop_eps=1e-8)
    graph, problem = build_problem(cfg)
    tracemalloc.start()
    try:
        res = run(problem, graph, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.stop_reason == "primal_eps"
    assert peak < 4 * 2**20


def assert_same_result(got, want):
    assert (got.n_iterations, got.trace.stop_reason) == (want.n_iterations,
                                                         want.trace.stop_reason)
    for name in ("trace.agents", "trace.values", "transcript.senders", "transcript.z_values",
                 "history.x_new", "history.y_new", "x", "y", "z"):
        a, b = got, want
        for attr in name.split("."):
            a, b = getattr(a, attr), getattr(b, attr)
        assert np.array_equal(a, b, equal_nan=True), name


STEP_STATE_KINDS = {
    **{kind: (7, kw) for kind, kw in VARIANT_CONFIGS.items()},
    "piadmm1_n75": (75, VARIANT_CONFIGS["piadmm1"]),
    "wadmm_walk": (12, dict(VARIANT_CONFIGS["wadmm"], eta=0.4)),
}


@pytest.mark.parametrize("kind", sorted(STEP_STATE_KINDS))
def test_step_states_equal_run_history(kind):
    # x, y and z after each step() are the run's states after that iteration
    n, kw = STEP_STATE_KINDS[kind]
    cfg = make_cfg(n_agents=n, max_iters=160, **kw)
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    sim = Simulation(problem, graph, cfg)
    for k in range(cfg.max_iters):
        sim.step()
        x, y = res.history.states_at(k + 1)
        assert sim.k == k + 1
        assert np.array_equal(sim.x, x) and np.array_equal(sim.y, y)
        assert np.array_equal(sim.z, res.transcript.z_values[k])


def test_run_after_step_goes_on_from_the_stepped_iterations():
    cfg = make_cfg(n_agents=7, max_iters=100)
    graph, problem = build_problem(cfg)
    alone = run(problem, graph, cfg)
    sim = Simulation(problem, graph, cfg)
    records = [sim.step() for _ in range(10)]
    res = sim.run()
    assert_same_result(res, alone)
    assert np.array_equal(record_rows(res.trace.records[:10]), record_rows(records),
                          equal_nan=True)


def test_run_after_step_on_a_stop_eps_run_equals_run_alone():
    # step() computes whole chunks under run()'s stop rules, so the stop
    # inside the last one ends the run for both
    cfg = make_cfg(n_agents=8, max_iters=50_000, stop_eps=1e-6)
    graph, problem = build_problem(cfg)
    alone = run(problem, graph, cfg)
    sim = Simulation(problem, graph, cfg)
    for _ in range(alone.n_iterations):
        sim.step()
    assert_same_result(sim.run(), alone)


def test_run_after_step_ends_at_a_divergence_not_yet_returned(state_fault):
    cfg = make_cfg(n_agents=8, max_iters=200)
    graph, problem = build_problem(cfg)
    alone = run(broken(state_fault, problem), graph, cfg)
    sim = Simulation(broken(state_fault, problem), graph, cfg)
    for _ in range(5):
        sim.step()  # computes past iteration 13
    res = sim.run()
    assert res.trace.stop_reason.startswith("diverged: non-finite state at iteration 13")
    assert_same_result(res, alone)


def test_step_after_divergence_raises_it_again(state_fault):
    n = 8
    cfg = make_cfg(n_agents=n, max_iters=200, **VARIANT_CONFIGS["piadmm1"])
    graph, problem = build_problem(cfg)
    sim = Simulation(broken(state_fault, problem), graph, cfg)
    records = [sim.step() for _ in range(13)]
    x, y, z = sim.x.copy(), sim.y.copy(), sim.z.copy()
    for _ in range(2):  # an ended run stays ended
        with pytest.raises(DivergenceError, match="non-finite state at iteration 13"):
            sim.step()
        assert sim.k == 13
        assert np.array_equal(sim.x, x) and np.array_equal(sim.y, y) and np.array_equal(sim.z, z)
    rng = np.random.default_rng(cfg.seed_solver)
    rng.uniform(-1, 1, size=(n, problem.dim))  # the random start
    gammas = rng.uniform(0.9, 1.1, size=_block_rows(n, 1))
    assert [r.gamma for r in records] == gammas[:13].tolist()


def test_step_after_metric_overflow_stays_ended():
    # each DivergenceError from step() once rolled the run back for the next
    # step() to retry; after two, run() wrote one transmission too many and
    # a last token that was not the result's
    cfg = make_cfg(x_update=XUpdateMode.FIRST_ORDER, rho=0.01, max_iters=5000)
    graph, problem = build_problem(cfg)
    alone = run(problem, graph, cfg)
    sim = Simulation(problem, graph, cfg)
    with pytest.raises(DivergenceError, match="metrics overflowed") as first:
        for _ in range(cfg.max_iters):
            sim.step()
    k = sim.k
    with pytest.raises(DivergenceError) as again:
        sim.step()
    assert str(again.value) == str(first.value) and sim.k == k == alone.n_iterations
    res = sim.run()
    assert_same_result(res, alone)
    assert len(res.transcript.senders) == res.n_iterations + 1
    assert np.array_equal(res.transcript.z_values[-1], res.z)
    assert np.array_equal(res.z, sim.z)


ENDINGS = {
    "max_iters": (dict(max_iters=100), "max_iters"),
    "primal_eps": (dict(max_iters=50_000, stop_eps=1e-6), "primal_eps"),
    "non_finite_state": (dict(max_iters=200), "diverged: non-finite state at iteration 13"),
    "metrics_overflow": (dict(x_update=XUpdateMode.FIRST_ORDER, rho=0.01, max_iters=5000),
                         "diverged: metrics overflowed"),
}


def ending_problem(ending, state_fault, problem):
    """The problem of ENDINGS' `ending`."""
    return broken(state_fault, problem) if ending == "non_finite_state" else problem


@pytest.mark.parametrize("steps", [0, 1, "block", "end"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_run_after_step_equals_run_alone(ending, steps, state_fault):
    kw, reason = ENDINGS[ending]
    cfg = make_cfg(n_agents=8, **kw)
    graph, problem = build_problem(cfg)
    alone = run(ending_problem(ending, state_fault, problem), graph, cfg)
    assert alone.trace.stop_reason.startswith(reason)
    sim = Simulation(ending_problem(ending, state_fault, problem), graph, cfg)
    count = {"block": _block_rows(8, 1), "end": cfg.max_iters + 1}.get(steps, steps)
    try:
        for _ in range(count):
            sim.step()
    except RuntimeError:  # a DivergenceError too
        assert sim.k == alone.n_iterations
    else:
        assert steps != "end"
    res = sim.run()
    assert_same_result(res, alone)
    for got, want in ((sim.x, res.x), (sim.y, res.y), (sim.z, res.z)):
        assert np.array_equal(got, want)
    with pytest.raises(RuntimeError) as after:
        sim.step()
    if alone.trace.diverged:
        assert type(after.value) is DivergenceError
        assert f"diverged: {after.value}" == alone.trace.stop_reason
    else:
        assert type(after.value) is RuntimeError and reason in str(after.value)


# ---- the trace rows a run fills


@pytest.mark.parametrize("every", [1, 7, "N", "max_iters", 2**63])
@pytest.mark.parametrize("kind", sorted(VARIANT_CONFIGS))
def test_trace_fills_the_rows_asked_for(kind, every):
    cfg = make_cfg(n_agents=8, max_iters=150, **VARIANT_CONFIGS[kind])
    every = {"N": cfg.n_agents, "max_iters": cfg.max_iters}.get(every, every)
    graph, problem = build_problem(cfg)
    full = run(problem, graph, cfg)
    assert_fills_checkpoints(run(problem, graph, cfg, every=every), full, every)


@pytest.mark.parametrize("every", [7, 2**63])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_endings_do_not_depend_on_the_rows_filled(ending, every, state_fault):
    kw, reason = ENDINGS[ending]
    cfg = make_cfg(n_agents=8, **kw)
    graph, problem = build_problem(cfg)
    full = run(ending_problem(ending, state_fault, problem), graph, cfg)
    assert full.trace.stop_reason.startswith(reason)
    got = run(ending_problem(ending, state_fault, problem), graph, cfg, every=every)
    assert_fills_checkpoints(got, full, every)
    assert not np.isnan(got.trace.final.accuracy) or not len(got.trace)


def test_every_must_be_positive_and_step_needs_every_row():
    cfg = make_cfg(n_agents=8, max_iters=40)
    graph, problem = build_problem(cfg)
    with pytest.raises(ValueError, match="every must be at least 1"):
        run(problem, graph, cfg, every=0)
    with pytest.raises(ValueError, match="step.. .* needs every = 1"):
        Simulation(problem, graph, cfg, every=8).step()


# ---- the final x, y and z a result hands over


def assert_final_states(res):
    """result.z is the token of the last transmission (zeros when nothing
    was sent), result.x and result.y each agent's state after it, and every
    receiver but the last is the next iteration's sender."""
    tr = res.transcript
    assert bits(res.z) == bits(tr.z_values[-1] if len(tr.senders) else np.zeros(tr.dim))
    for agent in range(1, tr.n_agents + 1):
        x, y = res.history.trajectory(agent)
        assert bits(res.x[agent - 1]) == bits(x[-1]), agent
        assert bits(res.y[agent - 1]) == bits(y[-1]), agent
    assert tr.receivers[:-1].tolist() == tr.senders[1:].tolist()


# the first row of the second chunk of a run alone, and of a batch of up to
# four runs of N = 8 that all reach it
SECOND_CHUNK = _block_rows(8, 1)
FINAL_STATE_ENDINGS = {
    # (config, fault start, fault factor, stop reason): a ring's max_iters
    # ends inside its chunk's last cycle
    "max_iters": (dict(max_iters=50), math.inf, 1.0, "max_iters"),
    "primal_eps": (dict(max_iters=50_000, stop_eps=1e-6), math.inf, 1.0, "primal_eps"),
    "non_finite_mid_chunk": (dict(max_iters=200), 13, math.nan,
                             "diverged: non-finite state at iteration 13 "),
    "non_finite_on_a_chunks_first_row": (
        dict(max_iters=SECOND_CHUNK + 10), SECOND_CHUNK, math.nan,
        f"diverged: non-finite state at iteration {SECOND_CHUNK} "),
    "metrics_overflow": (dict(max_iters=200), 70, 1e200,
                         "diverged: metrics overflowed at iteration 70 "),
}
# a transfer ring, a drawn-gamma ring and a walk
FINAL_STATE_KINDS = ("iadmm_randinit", "piadmm1", "wadmm")


@pytest.mark.parametrize("kind", FINAL_STATE_KINDS)
@pytest.mark.parametrize("ending", sorted(FINAL_STATE_ENDINGS))
def test_results_hand_over_the_states_after_their_last_transmission(ending, kind, state_fault):
    """Each ending, alone and beside a transfer ring, a drawn-gamma ring and
    a walk that end on max_iters later: a run that diverges on a chunk's
    first row takes the block's start tokens, not the diverged row's."""
    assert _block_rows(8, 4) == SECOND_CHUNK
    kw, start, factor, reason = FINAL_STATE_ENDINGS[ending]
    cfg = make_cfg(n_agents=8, **kw, **VARIANT_CONFIGS[kind])
    graph, problem = build_problem(cfg)

    def case():
        return state_fault(problem, start, lambda out: out * factor), graph, cfg

    others = []
    for i, other in enumerate(FINAL_STATE_KINDS):
        c = make_cfg(n_agents=8, max_iters=SECOND_CHUNK + 20, seed_data=i + 5,
                     seed_solver=i + 9, **VARIANT_CONFIGS[other])
        others.append((*build_problem(c)[::-1], c))
    alone = run(*case())
    assert alone.trace.stop_reason.startswith(reason)
    batch = run_batch([case(), *others])
    for res in [alone, *batch]:
        assert_final_states(res)
    assert_identical(batch[0], alone)
    assert [r.trace.stop_reason for r in batch[1:]] == ["max_iters"] * 3
