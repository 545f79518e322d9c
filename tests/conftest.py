import math
from typing import Sequence

import numpy as np
import pytest

from ringadmm import solver
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


def bits(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, a.view(np.uint8).tobytes()


def assert_identical(got: solver.RunResult, want: solver.RunResult) -> None:
    """Same iterations, ending, transcript, history, trace and final states, bit for bit."""
    assert got.n_iterations == want.n_iterations
    assert (got.trace.stop_reason, got.trace.diverged) == (want.trace.stop_reason,
                                                           want.trace.diverged)
    g, w = got.transcript, want.transcript
    assert (g.n_agents, g.rho, g.deterministic_init, g.stopped_by_eps) == \
        (w.n_agents, w.rho, w.deterministic_init, w.stopped_by_eps)
    assert bits(g.stop_eps) == bits(w.stop_eps)
    pairs = [
        (got.trace.agents, want.trace.agents), (got.trace.values, want.trace.values),
        (g.senders, w.senders), (g.receivers, w.receivers), (g.z_values, w.z_values),
        (got.history.x0, want.history.x0), (got.history.y0, want.history.y0),
        (got.history.agents, want.history.agents),
        (got.history.x_new, want.history.x_new), (got.history.y_new, want.history.y_new),
        (got.x, want.x), (got.y, want.y), (got.z, want.z),
    ]
    for a, b in pairs:
        assert bits(a) == bits(b)


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


def per_iteration_advance(self) -> tuple:
    """Simulation._advance as it was before its windows: every iteration
    gathers the active agents' (x_i, y_i), steps them and scatters them
    back, and a first-order x-update evaluates its gradient then (on a
    logistic batch, the input block g of the same operator).  Kept as
    the reference that the windowed loop equals bit for bit; install it
    with `monkeypatch.setattr(solver.Simulation, "_advance", ...)`."""
    block, runs = self._new_block(), self._alive
    k0, width, p, n = self.k, len(runs), self.dim, len(block.agents)
    xy, z, rho = self._xy, self._z, self._rho
    chunk = (k0, xy.copy().transpose(1, 0, 2), self._fvals)

    agents, receivers = block.agents, block.receivers
    # the active agent (0-based) of each iteration: one for all runs (a
    # cyclic batch, or a single run) is a basic slice of the (N, B, ...)
    # arrays; otherwise each run's agent is gathered
    if self.cyclic:
        ring = np.arange(self.active[0] - 1, self.active[0] + n) % self.n_agents
        agents[:], receivers[:] = ring[:n, None] + 1, ring[1 : n + 1, None] + 1
        shared, walk = ring[:n].tolist(), None
    else:
        # a walking run draws nothing but its walk from its stream (no
        # random start, gamma or noise)
        for b, r in enumerate(runs):
            path = [int(self.active[b])]
            for u in r.rng.random(n).tolist():
                path.append(solver.next_agent(r.graph, path[-1], u))
            agents[:, b], receivers[:, b] = path[:-1], path[1:]
        walk = (agents - 1, self._col[:, 0])
        shared = walk[0][:, 0].tolist() if width == 1 else None

    # the chunk's gammas (piadmm1) and noise (piadmm2)
    g = self._gamma_rows
    rho_eff = np.repeat(rho[None], n, axis=0) if len(g) else None
    for b in g:
        r, cfg = runs[b], runs[b].config
        gamma = solver.sample_gamma(cfg.gamma, r.rng, cfg.rho, r.lipschitz, self.n_agents, size=n)
        block.values[:, b, 5] = gamma
        rho_eff[:, b, 0] = cfg.rho * gamma
    noise = np.zeros((n, width, p))
    for b in self._noise_rows:
        omega = runs[b].rng.normal(0.0, runs[b].config.sigma, size=(n, p))
        block.values[:, b, 6] = np.sqrt(np.einsum("ij,ij->i", omega, omega))
        noise[:, b] = omega

    # the active agents' operators applied to s = (x_i, y_i, z, omega, 1),
    # or to (x_i, y_i, z, omega, g, 1) with the active agents' gradients g:
    # those the batch keeps, of its first rows (a ring's transfer rows, or a
    # walk's every row), and the chunk's own for the gamma rows
    pick = ring[:n] if self.cyclic else walk
    ops = np.empty((n, width, *self._ops.shape[2:]))
    ops[:, : self._ops.shape[1]] = self._ops[pick]
    if len(g):  # piadmm1 is cyclic; its rows take the chunk's own operators
        ops[:, g] = self._operators((ring[:n, None], g), rho_eff[:, g], rho[g])
    s = np.ones((width, 1, ops.shape[-2]))
    head, out = s[:, 0, :-1], block.states[:, :, None]
    new_xy, new_z = block.states[:, :, : 2 * p], block.z
    for j in range(n):
        sel = shared[j] if shared is not None else (walk[0][j], walk[1])
        grad = () if self._stack.affine else (self._stack.gradient(sel, xy[sel][:, :p]),)
        np.concatenate((xy[sel], z, noise[j], *grad), axis=1, out=head)
        np.matmul(s, ops[j], out=out[j])
        xy[sel], z = new_xy[j], new_z[j]
    self._z, self.k = z.copy(), k0 + n
    self.active = receivers[-1].copy()
    return chunk


@pytest.fixture
def state_fault(monkeypatch):
    """state_fault(problem, start, change) is a copy of `problem` whose runs,
    alone or in a batch, have each recorded (x_i, y_i, z) row of iteration
    `start` on replaced by change(row) before the chunk is scored
    (Simulation._metrics, the one place where runs end).  Meant for faults
    that end the run there, as a NaN state or overflowing metrics do: the
    states that the next chunk steps from are not changed."""
    faults = {}  # id(problem) -> (problem, start, change); holding it keeps its id
    metrics = solver.Simulation._metrics

    def faulty_metrics(self, chunk):
        k0, block = chunk[0], self._block
        for b, r in enumerate(self._alive):
            _, start, change = faults.get(id(r.problem), (None, math.inf, None))
            if start < k0 + len(block.states):
                rows = block.states[max(start - k0, 0) :, b]
                rows[:] = change(rows)
        return metrics(self, chunk)

    def make(problem, start, change):
        copy = solver.Problem(problem.objectives, problem.x_star)
        faults[id(copy)] = (copy, start, change)
        return copy

    monkeypatch.setattr(solver.Simulation, "_metrics", faulty_metrics)
    return make


@pytest.fixture
def small_ridge():
    """An 8-agent ridge problem plus its graph, deterministic seeds."""
    cfg = make_cfg()
    graph, problem = build_problem(cfg)
    return cfg, graph, problem
