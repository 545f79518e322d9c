"""The windowed step loop against the per-iteration loop it replaced.

`Simulation._advance` steps each chunk in windows in which no run's agent
acts twice (N iterations of a ring): it gathers the window's (x_i, y_i)
once, evaluates a first-order window's gradients at once and writes the new
states back once, leaving only the token chain per iteration.
`per_iteration_advance` (conftest) is the loop as it was before, which did
all of that every iteration.  Every transcript, history, trace, stepped
record and final state must equal its bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_identical, bits, make_cfg, per_iteration_advance
from ringadmm import solver
from ringadmm.harness import build_problem
from ringadmm.solver import (GammaSpec, InitSpec, Simulation, Variant, XUpdateMode, _block_rows,
                             _windows, run, run_batch)

RANDOM_START = dict(init=InitSpec.uniform(-1, 1))
LOGISTIC = dict(problem="logistic", x_update=XUpdateMode.FIRST_ORDER)
KINDS = {
    "iadmm": dict(variant=Variant.IADMM),
    "iadmm_randinit": dict(variant=Variant.IADMM_RANDINIT, **RANDOM_START),
    "piadmm1": dict(variant=Variant.PIADMM1, gamma=GammaSpec.uniform(0.9, 1.1), **RANDOM_START),
    "piadmm2": dict(variant=Variant.PIADMM2, sigma=1e-2, **RANDOM_START),
    "wadmm": dict(variant=Variant.WADMM_BASELINE),
    "first_order": dict(x_update=XUpdateMode.FIRST_ORDER, **RANDOM_START),
}
KINDS.update({f"logistic_{k}": {**v, **LOGISTIC} for k, v in list(KINDS.items())[:5]})


def spec(kind: str, **overrides) -> tuple:
    cfg = make_cfg(**{**KINDS[kind], **overrides})
    graph, problem = build_problem(cfg)
    return problem, graph, cfg


def alone(*specs) -> list:
    return [run(*s) for s in specs]


def stepped(steps: int, *specs) -> list:
    """Each run stepped `steps` times, then run to its end from there (the
    next chunk starts mid-cycle): its records, the states step() left and
    its result."""
    out = []
    for s in specs:
        sim = Simulation(*s)
        records = [dataclasses.astuple(sim.step()) for _ in range(steps)]
        out += [np.array(records), sim.x.copy(), sim.y.copy(), sim.z.copy(), sim.run()]
    return out


def faulty(state_fault, start: float, change) -> list:
    """Ridge runs, alone and in a batch, whose recorded states are changed
    from iteration `start` on before they are scored (conftest.state_fault)."""
    def one(seed):
        problem, graph, cfg = spec("iadmm_randinit", max_iters=300, seed_solver=seed)
        return state_fault(problem, start, change), graph, cfg
    return [run(*one(3))] + run_batch([one(seed) for seed in (3, 4, 5)])


def cut_windows() -> list:
    """Runs of 200 agents, whose blocks of 163 rows end every chunk inside a
    window."""
    assert _block_rows(200, 1) == 163
    return alone(*(spec(k, n_agents=200, max_iters=400)
                   for k in ("iadmm_randinit", "piadmm1", "piadmm2", "first_order")))


def ends_mid_window() -> list:
    (res,) = alone(spec("iadmm", max_iters=50_000, stop_eps=1e-6))
    assert res.trace.stop_reason == "primal_eps" and res.n_iterations % 8 != 0
    return [res]


SCENARIOS = {
    "three agents": lambda _: alone(*(spec(k, n_agents=3, eta=1.0, max_iters=150) for k in KINDS)),
    "windows cut by chunk ends": lambda _: cut_windows(),
    "mid-cycle after step": lambda _: stepped(
        11, *(spec(k, n_agents=7, max_iters=300) for k in ("piadmm1", "piadmm2", "wadmm",
                                                           "logistic_piadmm1"))),
    "mixed batch": lambda _: run_batch(
        [spec(k, max_iters=300, seed_solver=s) for k, s in (("piadmm1", 3), ("piadmm2", 4),
                                                           ("iadmm_randinit", 5))]),
    "logistic piadmm": lambda _: alone(*(spec(k, max_iters=300) for k in (
        "logistic_piadmm1", "logistic_piadmm2"))) + run_batch(
        [spec(k, max_iters=300, seed_solver=s) for k, s in (
            ("logistic_piadmm1", 3), ("logistic_piadmm2", 4), ("logistic_iadmm_randinit", 5))]),
    "stop mid-window": lambda _: ends_mid_window(),
    "walks": lambda _: alone(spec("wadmm", max_iters=300), spec("logistic_wadmm", max_iters=300))
    + run_batch([spec(k, max_iters=300, seed_solver=s) for k in ("wadmm", "logistic_wadmm")
                 for s in (3, 4, 5)]),
    "diverging prox": lambda fault: faulty(fault, 43, lambda v: v * math.nan),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_windowed_loop_equals_the_per_iteration_loop(scenario, state_fault, monkeypatch):
    got = SCENARIOS[scenario](state_fault)
    with monkeypatch.context() as patch:
        patch.setattr(solver.Simulation, "_advance", per_iteration_advance)
        want = SCENARIOS[scenario](state_fault)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, np.ndarray):
            assert bits(g) == bits(w)
        else:
            assert_identical(g, w)


def test_windows_hold_no_agent_twice_and_end_at_the_first_repeat():
    rng = np.random.default_rng(5)
    ring = np.arange(3, 3 + 40)[:, None] % 7 * np.ones(2, dtype=np.int64)
    assert _windows(ring) == _windows(ring, 7) == [0, 7, 14, 21, 28, 35, 40]
    for n_agents, start, n in ((1, 0, 5), (3, 2, 3), (5, 4, 1), (8, 1, 17), (12, 5, 24)):
        ring = np.arange(start, start + n)[:, None] % n_agents * np.ones(3, dtype=np.int64)
        assert _windows(ring, n_agents) == _windows(ring)
    walks = rng.integers(0, 6, size=(60, 3))
    bounds = _windows(walks)
    assert bounds[0] == 0 and bounds[-1] == len(walks)
    for j0, j1 in zip(bounds, bounds[1:]):
        window = walks[j0:j1]
        assert all(len(set(col)) == len(col) for col in window.T)  # no agent twice
        if j1 < len(walks):  # the next iteration repeats an agent of some run
            assert any(walks[j1, b] in window[:, b] for b in range(walks.shape[1]))


# chunk lengths to force on _block_rows(n_agents, batch), as functions of N
CHUNK_ROWS = {
    "1": lambda n, batch: 1,
    "7": lambda n, batch: 7,
    "N - 1": lambda n, batch: n - 1,
    "default": _block_rows,
    "past max_iters": lambda n, batch: 4000,
}


def chunked_runs() -> list:
    """Ridge and logistic runs of 100 agents, on rings and walks, alone and
    in a mixed batch, one alone and one in the batch filling only every
    7th or 5th trace row, one stepped and one of 8 agents that stops on
    stop_eps after 1,453 iterations: more than one chunk each at the
    default length."""
    assert _block_rows(100, 3) < _block_rows(100, 1) < 400 and _block_rows(8, 1) < 1453
    big = dict(n_agents=100, max_iters=400)
    mixed = [(*spec(k, seed_solver=s, **big), every) for k, s, every in (
        ("piadmm1", 3, 1), ("piadmm2", 4, 5), ("iadmm_randinit", 5, 1))]
    (stop,) = alone(spec("iadmm", max_iters=3000, stop_eps=1e-5))
    assert (stop.trace.stop_reason, stop.n_iterations) == ("primal_eps", 1453)
    return (alone((*spec("iadmm_randinit", **big), 7),
                  *(spec(k, **big) for k in ("first_order", "wadmm", "logistic_piadmm1",
                                             "logistic_wadmm")))
            + run_batch(mixed) + [stop] + stepped(11, spec("piadmm2", **big)))


def test_results_do_not_depend_on_the_chunk_length(monkeypatch):
    results = {}
    for name, rows in CHUNK_ROWS.items():
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_block_rows", rows)
            results[name] = chunked_runs()
    want = results.pop("1")
    for name, got in results.items():
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            if isinstance(g, np.ndarray):
                assert bits(g) == bits(w), name
            else:
                assert_identical(g, w)
