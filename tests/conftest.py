from typing import Sequence

import numpy as np
import pytest

from ringadmm import solver
from ringadmm.config import ExperimentConfig
from ringadmm.harness import build_problem
from ringadmm.objectives import RidgeStack


def make_cfg(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.n_agents = 8
    cfg.eta = 0.5
    cfg.max_iters = 400
    cfg.stop_eps = 0.0
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


RESULT_ARRAYS = ("trace.agents", "transcript.senders", "transcript.receivers",
                 "transcript.z_values", "history.x0", "history.y0", "history.agents",
                 "history.x_new", "history.y_new", "x", "y", "z")


def assert_fills_checkpoints(got, full, every: int) -> None:
    """`got` is the run `full` (every = 1) whose trace keeps the five metric
    columns on its checkpoint rows for `every` alone, bit for bit, and NaN
    on the others."""
    assert (got.n_iterations, got.trace.stop_reason) == (full.n_iterations,
                                                         full.trace.stop_reason)
    kept = full.trace.checkpoints(every)
    skipped = np.ones(len(full.trace), dtype=bool)
    skipped[kept] = False
    assert got.trace.values[kept].tobytes() == full.trace.values[kept].tobytes()
    assert np.isnan(got.trace.values[skipped, :5]).all()
    assert got.trace.values[:, 5:].tobytes() == full.trace.values[:, 5:].tobytes()
    for name in RESULT_ARRAYS:
        a, b = got, full
        for attr in name.split("."):
            a, b = getattr(a, attr), getattr(b, attr)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def aug_lagrangian(
    objectives: Sequence, x: np.ndarray, y: np.ndarray, z: np.ndarray, rho: float
) -> float:
    total = 0.0
    for i, f in enumerate(objectives):
        gap = z - x[i]
        total += f.value(x[i]) + float(y[i] @ gap) + 0.5 * rho * float(gap @ gap)
    return total


def z_before(transcript, k: int) -> np.ndarray:
    """Token value z^k at the start of iteration k."""
    return transcript.z_values[k - 1] if k else np.zeros(transcript.dim)


class _Fault:
    """`change` applied to the prox output of one run of `objectives` from
    its `start`-th call on; one call per iteration, so from iteration
    `start` on.  Holding the objectives keeps their id theirs."""

    def __init__(self, objectives, start, change):
        self.objectives, self.start, self.change, self.calls = objectives, start, change, 0


class _FaultyStack(RidgeStack):
    """Ridge objectives stepped one iteration at a time through x_update
    (not as operators), with each faulty run's prox output changed."""

    affine = False

    def __init__(self, columns, faults):
        super().__init__(columns)
        self.faults = faults  # per run: its _Fault, or None

    def prox(self, sel, z, y, rho_eff):
        out = super().prox(sel, z, y, rho_eff)
        for b, fault in enumerate(self.faults):
            if fault is not None:
                fault.calls += 1
                if fault.calls > fault.start:
                    out[b] = fault.change(out[b])
        return out


@pytest.fixture
def prox_fault(monkeypatch):
    """prox_fault(problem, start, change) is a copy of the ridge `problem`
    whose runs step on _FaultyStack: each run of it, alone or in a batch,
    has its prox output replaced by change(output) from iteration `start`
    on.  Each call gives a problem with a counter of its own, so use a new
    one for every run."""
    faults = {}  # id(problem.objectives) -> its _Fault
    plain = solver.stack_objectives

    def stack(columns):
        chosen = [faults.get(id(c)) for c in columns]
        if not any(chosen):
            return plain(columns)
        return _FaultyStack(columns, chosen)

    def make(problem, start, change):
        objectives = list(problem.objectives)
        faults[id(objectives)] = _Fault(objectives, start, change)
        return solver.Problem(objectives, problem.x_star)

    monkeypatch.setattr(solver, "stack_objectives", stack)
    return make


@pytest.fixture
def small_ridge():
    """An 8-agent ridge problem plus its graph, deterministic seeds."""
    cfg = make_cfg()
    graph, problem = build_problem(cfg)
    return cfg, graph, problem


def bfs_connected(graph) -> bool:
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


def total_gradient_norm(objectives, x: np.ndarray) -> float:
    return float(np.linalg.norm(sum(f.gradient(x) for f in objectives)))
