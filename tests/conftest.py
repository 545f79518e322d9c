import numpy as np
import pytest

from ringadmm.config import ExperimentConfig
from ringadmm.harness import build_problem


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
