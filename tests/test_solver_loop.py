"""The chunked run loop against the one-iteration step API and the step
equations.

`Simulation.run` advances a chunk of iterations and scores them in one
vectorised pass; `Simulation.step` computes the same chunks and returns them
one iteration at a time.  Both must produce the same records, states and
stopping point bit for bit.  Every
recorded iteration must also follow x_update, y_update and
z_update_incremental applied to the states before it, whether the loop took
the iteration as a precomputed operator (ridge) or through those functions.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_cfg
from ringadmm.harness import build_problem
from ringadmm.objectives import RidgeObjective
from ringadmm.solver import (
    DivergenceError,
    _block_rows,
    GammaSpec,
    InitSpec,
    Problem,
    Simulation,
    Variant,
    XUpdateMode,
    aug_lagrangian,
    run,
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


@pytest.mark.parametrize("kind", sorted(STEP_KINDS))
def test_recorded_iterations_follow_the_step_equations(kind):
    # an operator that folds the noise or the step scale in wrongly moves
    # the states by far less than the other tests notice
    cfg = make_cfg(n_agents=7, max_iters=150, **STEP_KINDS[kind])
    graph, problem = build_problem(cfg)
    res = run(problem, graph, cfg)
    assert res.trace.stop_reason == "max_iters"
    errors = step_equation_errors(problem, cfg, res)
    assert set(errors) == {"omega" if kind == "piadmm2" else "x", "y", "z"}
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


class _BreaksAt(RidgeObjective):
    """A ridge objective whose proximal step returns NaN from a given call on."""

    calls = 0
    fail_from = 0

    def prox(self, z, y, rho_eff):
        type(self).calls += 1
        out = super().prox(z, y, rho_eff)
        return out * math.nan if type(self).calls > type(self).fail_from else out


def test_non_finite_state_reports_the_same_iteration():
    cfg = make_cfg(n_agents=8, max_iters=200)
    graph, problem = build_problem(cfg)
    broken = Problem([_BreaksAt(f.data) for f in problem.objectives], problem.x_star)
    _BreaksAt.calls, _BreaksAt.fail_from = 0, 13  # iteration 13, mid-chunk
    res = run(broken, graph, cfg)
    _BreaksAt.calls = 0
    sim, records, tokens, error = step_loop(broken, graph, cfg)
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


def test_run_after_step_ends_at_a_divergence_not_yet_returned():
    cfg = make_cfg(n_agents=8, max_iters=200)
    graph, problem = build_problem(cfg)
    broken = Problem([_BreaksAt(f.data) for f in problem.objectives], problem.x_star)
    _BreaksAt.calls, _BreaksAt.fail_from = 0, 13
    alone = run(broken, graph, cfg)
    _BreaksAt.calls = 0
    sim = Simulation(broken, graph, cfg)
    for _ in range(5):
        sim.step()  # computes past iteration 13
    res = sim.run()
    assert res.trace.stop_reason.startswith("diverged: non-finite state at iteration 13")
    assert_same_result(res, alone)


def test_step_after_divergence_raises_it_again():
    n = 8
    cfg = make_cfg(n_agents=n, max_iters=200, **VARIANT_CONFIGS["piadmm1"])
    graph, problem = build_problem(cfg)
    broken = Problem([_BreaksAt(f.data) for f in problem.objectives], problem.x_star)
    _BreaksAt.calls, _BreaksAt.fail_from = 0, 13
    sim = Simulation(broken, graph, cfg)
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


@pytest.mark.parametrize("steps", [0, 1, "block", "end"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_run_after_step_equals_run_alone(ending, steps, monkeypatch):
    kw, reason = ENDINGS[ending]
    cfg = make_cfg(n_agents=8, **kw)
    graph, problem = build_problem(cfg)
    if ending == "non_finite_state":
        problem = Problem([_BreaksAt(f.data) for f in problem.objectives], problem.x_star)
        monkeypatch.setattr(_BreaksAt, "fail_from", 13)
    monkeypatch.setattr(_BreaksAt, "calls", 0)
    alone = run(problem, graph, cfg)
    assert alone.trace.stop_reason.startswith(reason)
    _BreaksAt.calls = 0
    sim = Simulation(problem, graph, cfg)
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
