"""The windowed step loop against the per-iteration loop it replaced.

`Simulation._advance` steps each chunk in windows in which no run's agent
acts twice (a ring's fixed segments, a walk's runs of new agents): it
gathers the window's (x_i, y_i) once, evaluates a first-order window's
gradients at once and writes the new states back once.  A walk then steps
the token one iteration at a time; a piadmm1 ring run that draws its
gammas takes the window's tokens from a blocked scan of its steps, and
every other ring run in one product with its segment's transfer map.
`per_iteration_advance` (conftest) is the loop as it was before, which did
all of that every iteration.  The walks equal it bit for bit in every
transcript, history, trace, stepped record and final state; the ring runs
equal it in everything but the rounding of their tokens, states and
metrics, which agree within TOLERANCE.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import RESULT_ARRAYS, assert_identical, bits, make_cfg, per_iteration_advance
from ringadmm import solver, verify
from ringadmm.harness import build_problem
from ringadmm.solver import (GammaSpec, InitSpec, Simulation, Variant, XUpdateMode, _block_rows,
                             _segment, _windows, run, run_batch)

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


def chained(spec) -> bool:
    """Whether the run steps its token one iteration at a time, as the
    reference does: a walk."""
    return not solver._Run(*spec).cyclic


def tagged(values: list, specs: list, per: int = 1) -> list:
    """Each of `values` with whether it is bit for bit the reference's:
    `per` consecutive values for each of `specs`."""
    return [(v, chained(specs[i // per])) for i, v in enumerate(values)]


def on_their_own(specs: list) -> list:
    return tagged(alone(*specs), specs)


def in_a_batch(specs: list) -> list:
    return tagged(run_batch(specs), specs)


def after_steps(steps: int, specs: list) -> list:
    return tagged(stepped(steps, *specs), specs, per=5)


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
    specs = [one(seed) for seed in (3, 3, 4, 5)]
    return tagged([run(*specs[0])] + run_batch(specs[1:]), specs)


def cut_windows() -> list:
    """Runs of 200 agents, two ring segments each, whose blocks of 163 rows
    would end a chunk inside a window if they were not rounded up to a
    whole cycle."""
    assert _block_rows(200, 1) == 163 and _segment(2) < 200
    return on_their_own([spec(k, n_agents=200, max_iters=400)
                         for k in ("iadmm_randinit", "piadmm1", "piadmm2", "first_order")])


def ends_mid_window() -> list:
    specs = [spec("iadmm", max_iters=50_000, stop_eps=1e-6)]
    ((res, _),) = got = on_their_own(specs)
    assert res.trace.stop_reason == "primal_eps" and res.n_iterations % 8 != 0
    return got


SCENARIOS = {
    "three agents": lambda _: on_their_own(
        [spec(k, n_agents=3, eta=1.0, max_iters=150) for k in KINDS]),
    "windows cut by chunk ends": lambda _: cut_windows(),
    "mid-cycle after step": lambda _: after_steps(
        11, [spec(k, n_agents=7, max_iters=300) for k in ("piadmm1", "piadmm2", "wadmm",
                                                          "logistic_piadmm1")]),
    "mixed batch": lambda _: in_a_batch(
        [spec(k, max_iters=300, seed_solver=s) for k, s in (("piadmm1", 3), ("piadmm2", 4),
                                                           ("iadmm_randinit", 5))]),
    "logistic piadmm": lambda _: on_their_own(
        [spec(k, max_iters=300) for k in ("logistic_piadmm1", "logistic_piadmm2")]) + in_a_batch(
        [spec(k, max_iters=300, seed_solver=s) for k, s in (
            ("logistic_piadmm1", 3), ("logistic_piadmm2", 4), ("logistic_iadmm_randinit", 5))]),
    "stop mid-window": lambda _: ends_mid_window(),
    "walks": lambda _: on_their_own([spec("wadmm", max_iters=300),
                                     spec("logistic_wadmm", max_iters=300)])
    + in_a_batch([spec(k, max_iters=300, seed_solver=s) for k in ("wadmm", "logistic_wadmm")
                  for s in (3, 4, 5)]),
    "diverging prox": lambda fault: faulty(fault, 43, lambda v: v * math.nan),
    # rho * v overflows for agent 8 alone: its c_j, infinite, must not reach
    # the tokens before it through T's zero blocks (0 * inf), or the run
    # would end on iteration 0's state, not on its metrics
    "partly infinite start": lambda _: on_their_own(
        [spec("iadmm_randinit", init=InitSpec.uniform(0, 2), rho=1e308, max_iters=40,
              seed_solver=3)]),
}

# how far a ring run's tokens, states and metrics may lie from the
# reference's, |got - want| <= atol + rtol |want|: about 10 times the
# largest difference these scenarios show (1.0e-12, an accuracy of "stop
# mid-window")
TOLERANCE = dict(rtol=1e-11, atol=1e-11)


def assert_close(got, want) -> None:
    """A ring run against the reference: the same iterations, ending,
    senders, receivers, start, gamma and omega_norm columns and NaN pattern
    of the trace, bit for bit; the same tokens, states and metrics within
    TOLERANCE."""
    assert got.n_iterations == want.n_iterations
    assert (got.trace.stop_reason, got.trace.diverged) == (want.trace.stop_reason,
                                                           want.trace.diverged)
    g, w = got.transcript, want.transcript
    assert (g.n_agents, g.rho, g.deterministic_init, g.stopped_by_eps) == \
        (w.n_agents, w.rho, w.deterministic_init, w.stopped_by_eps)
    assert bits(g.stop_eps) == bits(w.stop_eps)
    exact = [(got.trace.values[:, 5:], want.trace.values[:, 5:]),
             (np.isnan(got.trace.values), np.isnan(want.trace.values))]
    close = [(got.trace.values, want.trace.values)]
    for name in RESULT_ARRAYS:
        a, b = got, want
        for attr in name.split("."):
            a, b = getattr(a, attr), getattr(b, attr)
        rounded = name in ("transcript.z_values", "history.x_new", "history.y_new", "x", "y", "z")
        (close if rounded else exact).append((a, b))
    for a, b in exact:
        assert bits(a) == bits(b)
    for a, b in close:
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, **TOLERANCE)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_windowed_loop_equals_the_per_iteration_loop(scenario, state_fault, monkeypatch):
    got = SCENARIOS[scenario](state_fault)
    with monkeypatch.context() as patch:
        patch.setattr(solver.Simulation, "_advance", per_iteration_advance)
        want = SCENARIOS[scenario](state_fault)
    assert len(got) == len(want)
    for (g, exact), (w, _) in zip(got, want):
        if exact and isinstance(g, np.ndarray):
            assert bits(g) == bits(w)
        elif exact:
            assert_identical(g, w)
        elif isinstance(g, np.ndarray):  # stepped records, or states
            assert g.shape == w.shape and bits(np.isnan(g)) == bits(np.isnan(w))
            np.testing.assert_allclose(g, w, **TOLERANCE)
        else:
            assert_close(g, w)


def test_a_gamma_drawing_run_beside_transfer_runs_equals_the_reference_loop(monkeypatch):
    specs = [spec(k, n_agents=120, max_iters=400, seed_solver=s)
             for k, s in (("iadmm_randinit", 3), ("piadmm1", 4), ("piadmm2", 5))]
    assert [solver._Run(*s).transfer for s in specs] == [True, False, True]
    got = run_batch(specs)
    with monkeypatch.context() as patch:
        patch.setattr(solver.Simulation, "_advance", per_iteration_advance)
        want = run(*specs[1])
    assert_close(got[1], want)


def test_a_ring_run_builds_its_transfer_maps_once(monkeypatch):
    built = []
    maps = solver.Simulation._transfer_maps

    def counted(self, ops):
        built.append(ops.shape)
        return maps(self, ops)

    monkeypatch.setattr(solver.Simulation, "_transfer_maps", counted)
    res = run(*spec("iadmm_randinit", n_agents=20, max_iters=3000))
    assert res.n_iterations == 3000 and len(built) == 1


def test_windows_hold_no_agent_twice_and_end_at_the_first_repeat():
    rng = np.random.default_rng(5)
    ring = np.arange(40)[:, None] % 7 * np.ones(2, dtype=np.int64)
    assert _windows(ring, 7) == _windows(ring, 100) == [0, 7, 14, 21, 28, 35, 40]
    ring = np.arange(3, 3 + 17)[:, None] % 7 * np.ones(2, dtype=np.int64)
    assert _windows(ring, 3) == [0, 3, 4, 7, 10, 11, 14, 17]
    # a ring chunk starts where a segment starts; each window is the part of
    # one segment that the chunk passes through
    for n_agents, length, start, n in ((1, 1, 0, 5), (3, 2, 2, 3), (5, 2, 4, 1), (8, 3, 6, 17),
                                       (12, 5, 10, 24), (12, 100, 0, 30)):
        pos = np.arange(start, start + n) % n_agents
        want = [0, *(j for j in range(1, n)
                     if pos[j] // length != pos[j - 1] // length or pos[j] <= pos[j - 1]), n]
        assert _windows(pos[:, None] * np.ones(3, dtype=np.int64), length) == want
        assert all(len(set(pos[j0:j1])) == j1 - j0 for j0, j1 in zip(want, want[1:]))
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


def test_ring_results_do_not_depend_on_the_chunk_length_across_segments(monkeypatch):
    """Rings of 250 agents, three segments of 100, 100 and 50 positions,
    whose chunks end mid-cycle wherever a segment ends: a transfer run
    alone and in a batch beside a gamma-drawing piadmm1 run."""
    assert _segment(2) == 100
    specs = [spec(k, n_agents=250, max_iters=700, seed_solver=s)
             for k, s in (("iadmm_randinit", 3), ("piadmm2", 4), ("piadmm1", 5))]
    results = {}
    for name, rows in CHUNK_ROWS.items():
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_block_rows", rows)
            results[name] = run_batch(specs) + [run(*specs[0])]
    want = results.pop("1")
    for name, got in results.items():
        for g, w in zip(got, want):
            assert_identical(g, w)


def test_every_token_path_stays_near_a_long_double_replay():
    ok, detail = verify.check_token_precision()
    if detail.startswith("measured nothing"):
        pytest.skip(detail)
    assert ok, detail


def test_the_precision_check_says_when_it_measured_nothing():
    assert verify.check_token_precision(np.float64) == (
        True, "measured nothing: float64 is no wider than float64 on this host")


@pytest.mark.parametrize("kind", ["piadmm1", "iadmm_randinit"])
def test_a_non_finite_step_makes_the_window_tokens_nan_from_there_on(kind, monkeypatch):
    """Agent 8 of a ring run (a gamma-drawing scan row, or a transfer row)
    starts with an infinite first coordinate of x, so the step's c_7 is
    non-finite (the chain's z_7 is -inf there, and finite in the other
    coordinate): the first chunk's tokens are finite and close to the
    chain's before z_7 and NaN from z_7 on, and the run ends where the chain
    ends it (on iteration 0's metrics, which read agent 8's start)."""
    def first_chunk() -> tuple:
        tokens, metrics = [], solver.Simulation._metrics

        def spy(self, chunk):
            tokens.append(self._block.z[:, 0].copy())
            return metrics(self, chunk)

        monkeypatch.setattr(solver.Simulation, "_metrics", spy)
        sim = Simulation(*spec(kind, max_iters=40))
        sim._xy[7, 0, 0] = math.inf
        return tokens, sim.run()

    (got,), res = first_chunk()
    monkeypatch.setattr(solver.Simulation, "_advance", per_iteration_advance)
    (want,), ref = first_chunk()
    assert np.isfinite(got[:7]).all() and np.isnan(got[7:]).all()
    assert (~np.isfinite(want[7:])).any(axis=1).all()
    np.testing.assert_allclose(got[:7], want[:7], **TOLERANCE)
    assert (res.n_iterations, res.trace.stop_reason) == (ref.n_iterations, ref.trace.stop_reason)
    assert res.trace.stop_reason.startswith("diverged: metrics overflowed at iteration 0")
