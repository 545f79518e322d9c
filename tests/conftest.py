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


def per_iteration_advance(self, limit: int) -> tuple:
    """Simulation._advance as it was before its windows: every iteration
    gathers the active agents' (x_i, y_i), steps them and scatters them
    back, and a first-order x-update evaluates its gradient then (on a
    logistic batch, the input block g of the same operator).  Kept as
    the reference that the windowed loop equals bit for bit; install it
    with `monkeypatch.setattr(solver.Simulation, "_advance", ...)`."""
    if self._block.n == len(self._block.agents):
        self._new_block()
    block, runs = self._block, self._alive
    lo, k0, width, p = block.n, self.k, len(runs), self.dim
    n = min(limit, len(block.agents) - lo)
    xy, z, rho = self._xy, self._z, self._rho
    chunk = (lo, k0, xy.copy().transpose(1, 0, 2), self._fvals)

    agents, receivers = block.agents[lo : lo + n], block.receivers[lo : lo + n]
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
        block.values[lo : lo + n, b, 5] = gamma
        rho_eff[:, b, 0] = cfg.rho * gamma
    noise = np.zeros((n, width, p))
    for b in self._noise_rows:
        omega = runs[b].rng.normal(0.0, runs[b].config.sigma, size=(n, p))
        block.values[lo : lo + n, b, 6] = np.sqrt(np.einsum("ij,ij->i", omega, omega))
        noise[:, b] = omega

    if self._ops is not None:
        # the active agents' operators applied to s = (x_i, y_i, z, omega, 1),
        # or to (x_i, y_i, z, omega, g, 1) with the active agents' gradients g
        pick = ring[:n] if self.cyclic else walk
        ops = self._ops[pick]
        if len(g):  # piadmm1 is cyclic; its rows take the chunk's own operators
            ops[:, g] = self._operators((ring[:n, None], g), rho_eff[:, g], rho[g])
        s = np.ones((width, 1, ops.shape[-2]))
        head, out = s[:, 0, :-1], block.states[lo : lo + n, :, None]
        new_xy, new_z = block.states[lo : lo + n, :, : 2 * p], block.z[lo : lo + n]
        for j in range(n):
            sel = shared[j] if shared is not None else (walk[0][j], walk[1])
            grad = () if self._stack.affine else (self._stack.gradient(sel, xy[sel][:, :p]),)
            np.concatenate((xy[sel], z, noise[j], *grad), axis=1, out=head)
            np.matmul(s, ops[j], out=out[j])
            xy[sel], z = new_xy[j], new_z[j]
        z = z.copy()
    else:
        (x, y), mode = np.split(xy, 2, axis=2), runs[0].config.x_update
        for j in range(n):
            sel = shared[j] if shared is not None else (walk[0][j], walk[1])
            x_old, y_old = x[sel], y[sel]
            re = rho if rho_eff is None else rho_eff[j]
            x_new = solver.x_update(self._stack, x_old, y_old, z, re, mode, sel)
            if self._noise_rows:
                np.add(x_new, noise[j], out=x_new, where=self._noise_mask)
            y_new = solver.y_update(y_old, z, x_new, re)
            z = solver.z_update_incremental(z, x_old, y_old, x_new, y_new, rho, self.n_agents)
            x[sel], y[sel] = x_new, y_new
            block.x[lo + j], block.y[lo + j], block.z[lo + j] = x_new, y_new, z
    block.n = lo + n
    self._z, self.k = z, k0 + n
    self.active = receivers[-1].copy()
    return chunk


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
