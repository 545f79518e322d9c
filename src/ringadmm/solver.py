"""Token-passing incremental consensus solver.

One agent is active per iteration.  It receives the token z, refreshes its
primal/dual pair (x_i, y_i), folds the change into the token, and forwards
the token to the next agent.  The token is, at every iteration, the network
average of x_i - y_i / rho, maintained incrementally so no global
aggregation ever happens.

Variants:
  iadmm           deterministic all-zero start, ring activation order
  iadmm_randinit  random start with x_i^0 = v_i, y_i^0 = rho * v_i
  piadmm1         random start plus a private multiplicative step-size
                  perturbation gamma drawn fresh at every activation
  piadmm2         random start plus additive Gaussian noise on the new x
  wadmm           all-zero start, random-walk activation order (baseline)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .objectives import stack_kind, stack_objectives
from .records import TRACE_VALUES, IterationRecord, RunTrace, StateHistory, Transcript
from .topology import Graph, next_agent


class Variant(str, Enum):
    IADMM = "iadmm"
    IADMM_RANDINIT = "iadmm_randinit"
    PIADMM1 = "piadmm1"
    PIADMM2 = "piadmm2"
    WADMM_BASELINE = "wadmm"


RANDOMIZED_INIT_VARIANTS = frozenset(
    {Variant.IADMM_RANDINIT, Variant.PIADMM1, Variant.PIADMM2}
)


class XUpdateMode(str, Enum):
    EXACT_PROX = "exact_prox"
    FIRST_ORDER = "first_order"


class DivergenceError(RuntimeError):
    """A state became non-finite; the run is aborted with diagnostics."""


@dataclass(frozen=True)
class GammaSpec:
    """Distribution of the private step-size scale gamma.

    kind "constant": always `value`.
    kind "uniform": U(lo, hi); the support must stay strictly positive.
    kind "floor": the deterministic value margin * gamma_lower_bound(rho, L, N),
    the smallest scale for which monotone descent of the augmented
    Lagrangian is guaranteed.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    value: float = 1.0
    margin: float = 1.0

    @classmethod
    def constant(cls, value: float) -> "GammaSpec":
        if value <= 0:
            raise ValueError("gamma must be positive")
        return cls(kind="constant", value=float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "GammaSpec":
        if lo <= 0 or hi <= lo:
            raise ValueError(f"uniform gamma support ({lo}, {hi}) must be positive")
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def floor(cls, margin: float) -> "GammaSpec":
        if margin <= 0:
            raise ValueError("margin must be positive")
        return cls(kind="floor", margin=float(margin))


@dataclass(frozen=True)
class InitSpec:
    """Initial per-coordinate distribution of v; x^0 = v and y^0 = rho * v,
    which keeps every term x^0 - y^0/rho at exactly zero."""

    kind: str  # "zeros" | "uniform"
    lo: float = 0.0
    hi: float = 0.0

    @classmethod
    def zeros(cls) -> "InitSpec":
        return cls(kind="zeros")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "InitSpec":
        if hi <= lo:
            raise ValueError("empty init interval")
        return cls(kind="uniform", lo=float(lo), hi=float(hi))


@dataclass
class SolverConfig:
    """The solver's settings, which config.ExperimentConfig extends."""

    rho: float = 10.0
    variant: Variant = Variant.IADMM
    x_update: XUpdateMode = XUpdateMode.EXACT_PROX
    gamma: GammaSpec = field(default_factory=lambda: GammaSpec.constant(1.0))
    sigma: float = 0.0
    init: InitSpec = field(default_factory=InitSpec.zeros)
    seed_solver: int = 3
    max_iters: int = 10_000
    stop_eps: float = 1e-10

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class Problem:
    """Objectives plus the centralized optimum used only for scoring."""

    objectives: Sequence
    x_star: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.x_star)

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    def lipschitz(self) -> float:
        return max(f.lipschitz_bound() for f in self.objectives)


def gamma_lower_bound(rho: float, lipschitz: float, n_agents: int) -> float:
    """Smallest step-scale for which every iteration provably decreases the
    augmented Lagrangian: max{(2 rho^2 + 4 rho + 1)/(rho - L), 2 (rho + 2) N}."""
    if rho <= lipschitz:
        raise ValueError(f"need rho > L, got rho={rho}, L={lipschitz}")
    return max(
        (2.0 * rho * rho + 4.0 * rho + 1.0) / (rho - lipschitz),
        2.0 * (rho + 2.0) * n_agents,
    )


def sample_gamma(
    spec: GammaSpec,
    rng: np.random.Generator,
    rho: float,
    lipschitz: float,
    n_agents: int,
    size: int | None = None,
) -> float | np.ndarray:
    """One draw, or an array of `size` draws equal to as many single draws."""
    if spec.kind == "constant":
        if spec.value <= 0:
            raise ValueError("gamma must be positive")
        value = spec.value
    elif spec.kind == "uniform":
        if spec.lo <= 0:
            raise ValueError("gamma support touches zero")
        if size is not None:
            return rng.uniform(spec.lo, spec.hi, size=size)
        return float(rng.uniform(spec.lo, spec.hi))
    elif spec.kind == "floor":
        value = spec.margin * gamma_lower_bound(rho, lipschitz, n_agents)
    else:
        raise ValueError(f"unknown gamma spec kind {spec.kind!r}")
    return value if size is None else np.full(size, value)


def x_update(
    objective,
    x_current: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    rho_eff: float | np.ndarray,
    mode: XUpdateMode,
) -> np.ndarray:
    """New primal iterate of the active agent.

    exact_prox minimizes f(x) + (rho_eff/2)||z - x + y/rho_eff||^2 exactly;
    first_order takes the linearized step z + y/rho_eff - grad f(x)/rho_eff.
    The states may be (B, p) rows of a batch, with rho_eff a (B, 1) column
    and `objective` an ObjectiveStack selection.  rho_eff must be positive.
    """
    if mode == XUpdateMode.EXACT_PROX:
        return objective.prox(z, y, rho_eff)
    return z + y / rho_eff - objective.gradient(x_current) / rho_eff


def y_update(
    y: np.ndarray, z: np.ndarray, x_new: np.ndarray, rho_eff: float | np.ndarray
) -> np.ndarray:
    return y + rho_eff * (z - x_new)


def z_update_incremental(
    z: np.ndarray,
    x_old: np.ndarray,
    y_old: np.ndarray,
    x_new: np.ndarray,
    y_new: np.ndarray,
    rho: float | np.ndarray,
    n_agents: int,
) -> np.ndarray:
    """Fold one agent's state change into the network average.

    rho here is always the global penalty, never the perturbed step scale;
    otherwise the token would drift off the average it represents.
    """
    return z + ((x_new - y_new / rho) - (x_old - y_old / rho)) / n_agents


def accuracy(
    x: np.ndarray, x_star: np.ndarray, init_dist: np.ndarray
) -> float | np.ndarray:
    """Mean over agents of ||x_i - x*|| / ||x_i^0 - x*||.

    x holds the (N, p) states, or a (..., N, p) stack of them with one value
    per state; x_star (..., p) and init_dist (..., N) may carry leading axes
    that broadcast against the stack's, as one per run of a batch does.
    Agents whose start coincides with x* are excluded (the mean runs over
    the remaining agents) after a warning, for a 1-D init_dist only; 0.0 if
    nobody remains.
    """
    included = init_dist > 0.0
    if not included.all():
        warnings.warn(
            "accuracy: excluding agents initialized exactly at the optimum",
            stacklevel=2,
        )
        x, init_dist = x[..., included, :], init_dist[included]
    diff = x - x_star
    ratio = np.sqrt(np.einsum("...ij,...ij->...i", diff, diff)) / init_dist
    return ratio.sum(axis=-1) / max(init_dist.shape[-1], 1)


def aug_lagrangian(
    objectives: Sequence, x: np.ndarray, y: np.ndarray, z: np.ndarray, rho: float
) -> float:
    total = 0.0
    for i, f in enumerate(objectives):
        gap = z - x[i]
        total += f.value(x[i]) + float(y[i] @ gap) + 0.5 * rho * float(gap @ gap)
    return total


def kkt_residuals(
    objectives: Sequence, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> tuple[float, float, float]:
    """(max_i ||grad f_i(x_i) - y_i||, ||sum_i y_i||, max_i ||z - x_i||)."""
    r_grad = max(
        float(np.linalg.norm(f.gradient(x[i]) - y[i])) for i, f in enumerate(objectives)
    )
    r_sum = float(np.linalg.norm(y.sum(axis=0)))
    r_cons = float(np.max(np.linalg.norm(z - x, axis=1)))
    return r_grad, r_sum, r_cons


def token_gap(x: np.ndarray, y: np.ndarray, z: np.ndarray, rho: float) -> float:
    """Distance between the token and the average it is supposed to carry."""
    avg = np.mean(x - y / rho, axis=0)
    return float(np.linalg.norm(z - avg))


def initialize(
    graph: Graph, config: SolverConfig, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial (X, Y, z).

    Deterministic variants start from all zeros.  Randomized variants draw
    v_i per agent and set x_i^0 = v_i, y_i^0 = rho * v_i so that the token
    z^0 = 0 equals the average of x_i^0 - y_i^0 / rho from the start.  The
    stored x is y / rho (one rounding of v), which makes every term
    x_i^0 - y_i^0 / rho zero in exact floating point, not just approximately.
    """
    n = graph.n_agents
    x = np.zeros((n, dim))
    y = np.zeros((n, dim))
    if config.variant in RANDOMIZED_INIT_VARIANTS and config.init.kind != "zeros":
        if config.init.kind != "uniform":
            raise ValueError(f"unknown init kind {config.init.kind!r}")
        y = config.rho * rng.uniform(config.init.lo, config.init.hi, size=(n, dim))
        x = y / config.rho
    return x, y, np.zeros(dim)


@dataclass
class RunResult:
    trace: RunTrace
    transcript: Transcript
    history: StateHistory
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    n_iterations: int


def _block_rows(n_agents: int, batch: int) -> int:
    """Iterations per block, and so per metrics pass: one cycle, but at least
    32 to share the pass's fixed cost, and few enough that its
    (batch, rows, N, p) arrays stay near 2**14 agent states."""
    return max(1, min(max(n_agents, 32), 2**14 // (n_agents * batch)))


class _Block:
    """Per-iteration values of up to `size` consecutive iterations of a batch
    of runs, as (iteration, run, ...) arrays: the active agent and the
    receiver, the agent's new x and y and the token sent (the three blocks
    of `states`), and the RunTrace.values row."""

    def __init__(self, size: int, batch: int, dim: int):
        self.n = 0
        self.agents = np.empty((size, batch), dtype=np.int64)
        self.receivers = np.empty((size, batch), dtype=np.int64)
        self.states = np.empty((size, batch, 3 * dim))
        self.x = self.states[..., :dim]
        self.y = self.states[..., dim : 2 * dim]
        self.z = self.states[..., 2 * dim :]
        self.values = np.full((size, batch, len(TRACE_VALUES)), math.nan)


class _Run:
    """One run of a batch: its inputs, random stream and start, the (block,
    row) pairs that hold its iterations and, once it has ended, its result.

    The stream default_rng(config.seed_solver) gives, in order, the random
    start, then piadmm1's gammas or piadmm2's noise, or wadmm's walk (one
    uniform per iteration, mapped to a neighbour by next_agent), drawn a
    chunk at a time.  Agent 1 is active first; wadmm walks, every other
    variant follows the ring."""

    def __init__(self, problem: Problem, graph: Graph, config: SolverConfig):
        if graph.n_agents != problem.n_agents:
            raise ValueError("graph and problem disagree on the number of agents")
        config.__post_init__()  # again: fields may have been set after construction
        self.problem, self.graph, self.config = problem, graph, config
        self.cyclic = config.variant != Variant.WADMM_BASELINE
        self.rng = np.random.default_rng(config.seed_solver)
        self.lipschitz = problem.lipschitz()
        if config.variant == Variant.PIADMM1 and config.gamma.kind == "floor":
            gamma_lower_bound(config.rho, self.lipschitz, graph.n_agents)  # rho > L
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite start diverges
            self.x0, self.y0, _ = initialize(graph, config, problem.dim, self.rng)
            self.init_dist = np.linalg.norm(self.x0 - problem.x_star, axis=1)
        self.finite_start = bool(np.isfinite(self.x0).all() and np.isfinite(self.y0).all())
        self.blocks: list[tuple[_Block, int]] = []
        self.result: RunResult | None = None

    def key(self) -> tuple:
        """Runs with equal keys can step together in one batch."""
        return (self.graph.n_agents, self.problem.dim, self.cyclic,
                self.config.x_update, stack_kind(self.problem.objectives))


class Simulation:
    """Drives a batch of B token-passing runs with equal `_Run.key`; B=1 is
    the ordinary run.

    States are laid out agent-first as (N, B, 2p), x beside y.  In a cyclic
    batch every run activates the same agent, read and written with one basic
    slice; random-walk runs gather theirs per run.  rho, the gamma draws, the
    noise and the stopping rules are per-run columns.  Each iteration only
    updates the states (on an affine stack with one precomputed operator, see
    _operators) and records them in blocks of about one cycle (_block_rows).
    The metrics of each chunk of iterations are computed afterwards in one
    vectorised pass, the only place where runs end: each at its chunk's first
    diverging, converged or last allowed iteration.  Ended runs leave the
    batch and stay ended.  `k` counts the iterations computed, or those that
    step() has returned.
    """

    def __init__(self, problem: Problem, graph: Graph, config: SolverConfig):
        self._start([_Run(problem, graph, config)])

    @classmethod
    def _batch(cls, runs: list[_Run]) -> "Simulation":
        sim = cls.__new__(cls)
        sim._start(runs)
        return sim

    def _start(self, runs: list[_Run]) -> None:
        if len({r.key() for r in runs}) != 1:
            raise ValueError("a batch needs one N, p, x-update, schedule kind and objective kind")
        first = runs[0]
        self.n_agents, self.dim = first.graph.n_agents, first.problem.dim
        self.cyclic = first.cyclic
        self.runs, self._alive = runs, list(runs)
        self.k = 0
        # step()'s chunk (the end of its iterations to return, first row and
        # iteration, states, tokens) and x, y, z after the iteration it returned last
        self._stepped = self._now = None
        self.active = np.ones(len(runs), dtype=np.int64)
        self._xy = np.stack([np.hstack([r.x0, r.y0]) for r in runs], axis=1)
        self._z = np.zeros((len(runs), self.dim))
        self._columns()
        x0 = np.array([r.x0 for r in runs])
        with np.errstate(over="ignore", invalid="ignore"):
            self._fvals = self._stack.value(
                (np.arange(self.n_agents), np.arange(len(runs))[:, None]), x0)

    def _columns(self) -> None:
        """Per-run columns and operators of the runs still in the batch, and a new block."""
        runs = self._alive
        self._stack = stack_objectives([r.problem.objectives for r in runs])
        self._at = [self._stack.at(i) for i in range(self.n_agents)]
        self._rho = np.array([[r.config.rho] for r in runs])
        self._stop_eps = np.array([[r.config.stop_eps] for r in runs])
        self._max_iters = np.array([[r.config.max_iters] for r in runs])
        self._x_star = np.array([r.problem.x_star for r in runs])[:, None, None]
        self._init_dist = np.array([r.init_dist for r in runs])[:, None]
        self._excluding = not (self._init_dist > 0.0).all()
        self._col = np.arange(len(runs))[:, None]
        self._gamma_rows = np.flatnonzero([r.config.variant == Variant.PIADMM1 for r in runs])
        self._noise_rows = [b for b, r in enumerate(runs) if r.config.variant == Variant.PIADMM2]
        noisy = np.isin(np.arange(len(runs)), self._noise_rows)[:, None]
        self._noise_mask = True if noisy.all() else noisy  # np.add's where=
        self._ops = self._operators((np.arange(self.n_agents)[:, None], self._col[:, 0]),
                                    self._rho, self._rho) if self._stack.affine else None
        self._new_block()

    def _operators(self, sel, rho_eff, rho) -> np.ndarray:
        """The updates of the agents that the (n, B) index arrays `sel` pick, as
        (n, B, 4p + 1, 3p) maps A: (x_i', y_i', z') = s @ A for s = (x_i, y_i, z,
        omega, 1), omega the noise added to x'.  Read off x_update, y_update and
        z_update_incremental at the unit vectors, less their value at 0, and at 0."""
        eye, mode = np.eye(4 * self.dim + 1, 4 * self.dim)[:, None, None], \
            self.runs[0].config.x_update
        x, y, z, omega = [a.copy() for a in np.split(eye, 4, axis=-1)]  # contiguous: faster
        x_new = x_update(self._stack.at(sel), x, y, z, rho_eff, mode) + omega
        y_new = y_update(y, z, x_new, rho_eff)
        z_new = z_update_incremental(z, x, y, x_new, y_new, rho, self.n_agents)
        ops = np.concatenate([x_new, y_new, z_new], axis=-1)
        ops[:-1] -= ops[-1]
        return ops.transpose(1, 2, 0, 3).copy()

    def _new_block(self) -> None:
        self._block = _Block(_block_rows(self.n_agents, len(self._alive)),
                             len(self._alive), self.dim)
        for b, r in enumerate(self._alive):
            r.blocks.append((self._block, b))

    def _single(self) -> None:
        if len(self.runs) != 1:
            raise ValueError("this needs a simulation of a single run")

    def _state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A single run's x, y and z: after the iterations that step() has
        returned, or its result's once it has ended."""
        self._single()
        result, p = self.runs[0].result, self.dim
        if self._now:
            return self._now
        if result:
            return result.x, result.y, result.z
        return self._xy[:, 0, :p], self._xy[:, 0, p:], self._z[0]

    @property
    def x(self) -> np.ndarray:
        """The (N, p) states of a single run; likewise y and z."""
        return self._state()[0]

    @property
    def y(self) -> np.ndarray:
        return self._state()[1]

    @property
    def z(self) -> np.ndarray:
        return self._state()[2]

    def step(self) -> IterationRecord:
        """Advance a single run by one iteration: run()'s chunks, under its
        stop rules, one iteration per call.  Once the run has ended, every
        call raises how it ended: its DivergenceError, or a RuntimeError
        naming max_iters or primal_eps."""
        self._single()
        run = self.runs[0]
        while self._stepped is None or self.k == self._stepped[0]:
            self._stepped = self._now = None
            if run.result:
                reason = run.result.trace.stop_reason
                if run.result.trace.diverged:
                    raise DivergenceError(reason.removeprefix("diverged: "))
                raise RuntimeError(f"the run has ended: {reason}")
            k0, (lo, xy, zs) = self.k, self._chunk()
            end = run.result.n_iterations if run.result else self.k
            self._stepped, self.k = (end, lo, k0, xy[0], zs[0]), k0
        _, lo, k0, xy, zs = self._stepped
        i, block, p = self.k - k0, self._block, self.dim
        self._now, self.k = (xy[i, :, :p], xy[i, :, p:], zs[i]), self.k + 1
        return IterationRecord.from_values(k0 + i, int(block.agents[lo + i, 0]),
                                           block.values[lo + i, 0].tolist())

    def _chunk(self) -> tuple[int, np.ndarray, np.ndarray]:
        """run()'s next chunk: advance the batch, score it and end the runs
        that stop in it.  Returns the chunk's first row, and the (B, chunk,
        N, 2p) states and (B, chunk, p) tokens after each of its iterations."""
        # non-finite values are caught by the metrics pass, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            chunk = self._advance(int(self._max_iters.min()) - self.k)
            ended, xy, zs, self._fvals = self._metrics(chunk)
        self._end(ended)
        return chunk[0], xy, zs

    def _advance(self, limit: int) -> tuple:
        """Up to `limit` iterations of the state update of every run in the
        batch, as many as the current block has free rows for (a full block
        is followed by a new one), recorded in those rows.  Returns the
        chunk's start for _metrics: its first row and iteration, the (x, y)
        states side by side as (B, N, 2p) and the objective values."""
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
                    path.append(next_agent(r.graph, path[-1], u))
                agents[:, b], receivers[:, b] = path[:-1], path[1:]
            walk = (agents - 1, self._col[:, 0])
            shared = walk[0][:, 0].tolist() if width == 1 else None

        # the chunk's gammas (piadmm1) and noise (piadmm2)
        g = self._gamma_rows
        rho_eff = np.repeat(rho[None], n, axis=0) if len(g) else None
        for b in g:
            r, cfg = runs[b], runs[b].config
            gamma = sample_gamma(cfg.gamma, r.rng, cfg.rho, r.lipschitz, self.n_agents, size=n)
            block.values[lo : lo + n, b, 5] = gamma
            rho_eff[:, b, 0] = cfg.rho * gamma
        noise = np.zeros((n, width, p))
        for b in self._noise_rows:
            omega = runs[b].rng.normal(0.0, runs[b].config.sigma, size=(n, p))
            block.values[lo : lo + n, b, 6] = np.sqrt(np.einsum("ij,ij->i", omega, omega))
            noise[:, b] = omega

        if self._ops is not None:
            # the active agents' operators applied to s = (x_i, y_i, z, omega, 1)
            pick = ring[:n] if self.cyclic else walk
            ops = self._ops[pick]
            if len(g):  # piadmm1 is cyclic; its rows take the chunk's own operators
                ops[:, g] = self._operators((ring[:n, None], g), rho_eff[:, g], rho[g])
            s = np.ones((width, 1, 4 * p + 1))
            head, out = s[:, 0, : 4 * p], block.states[lo : lo + n, :, None]
            new_xy, new_z = block.states[lo : lo + n, :, : 2 * p], block.z[lo : lo + n]
            for j in range(n):
                sel = shared[j] if shared is not None else (walk[0][j], walk[1])
                np.concatenate((xy[sel], z, noise[j]), axis=1, out=head)
                np.matmul(s, ops[j], out=out[j])
                xy[sel], z = new_xy[j], new_z[j]
            z = z.copy()
        else:
            (x, y), mode, at = np.split(xy, 2, axis=2), runs[0].config.x_update, self._at
            for j in range(n):
                sel = shared[j] if shared is not None else (walk[0][j], walk[1])
                x_old, y_old = x[sel], y[sel]
                re = rho if rho_eff is None else rho_eff[j]
                f = self._stack.at(sel) if shared is None else at[sel]
                x_new = x_update(f, x_old, y_old, z, re, mode)
                if self._noise_rows:
                    np.add(x_new, noise[j], out=x_new, where=self._noise_mask)
                y_new = y_update(y_old, z, x_new, re)
                z = z_update_incremental(z, x_old, y_old, x_new, y_new, rho, self.n_agents)
                x[sel], y[sel] = x_new, y_new
                block.x[lo + j], block.y[lo + j], block.z[lo + j] = x_new, y_new, z
        block.n = lo + n
        self._z, self.k = z, k0 + n
        self.active = receivers[-1].copy()
        return chunk

    def _metrics(self, chunk: tuple) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
        """Metrics of the chunk that _advance just recorded, and where runs end.

        A run ends at its first iteration of the chunk that has a non-finite
        state, has non-finite metrics, has r_primal < stop_eps or is its
        max_iters-th (checked in that order).  A non-finite state drops the
        iteration; non-finite metrics keep its transmission but not its
        trace row; a stop keeps it whole.  Returns, per ended row of the
        batch, the run's iterations, its transmissions and its stop reason;
        the (B, chunk, N, 2p) states and (B, chunk, p) tokens after each
        iteration; and the (B, N) objective values after the chunk.
        """
        (lo, k0, start, f0), block = chunk, self._block
        hi, n, p, col = block.n, self.n_agents, self.dim, self._col
        c, agents = hi - lo, block.agents[lo:hi].T - 1
        rows = np.arange(c)
        states = block.states[lo:hi].transpose(1, 0, 2)

        # every agent's (x, y) after each iteration of the chunk: row `last`
        # of `pool`, the start states followed by the chunk's updates
        pool = np.concatenate([start, states[..., : 2 * p]], axis=1)
        last = np.empty((len(col), c, n), dtype=np.int64)
        last[:] = np.arange(n)
        last[col, rows, agents] = rows + n
        np.maximum.accumulate(last, axis=1, out=last)
        xy = pool[col[..., None], last]
        x, y = xy[..., :p], xy[..., p:]
        f_new = self._stack.value((agents, col), states[..., :p])
        f = np.concatenate([f0, f_new], axis=1)[col[..., None], last]
        zs = states[..., 2 * p :]
        # gaps are formed before any reduction so near-consensus values do
        # not cancel catastrophically
        gap = zs[:, :, None, :] - x
        sq = np.einsum("bcij,bcij->bci", gap, gap)
        r_primal = np.sqrt(sq.max(axis=2))
        vals = block.values[lo:hi].transpose(1, 0, 2)
        vals[..., 0] = self._accuracy(x)
        vals[..., 1] = f.sum(axis=2) + np.einsum("bcij,bcij->bc", y, gap) \
            + 0.5 * self._rho * sq.sum(axis=2)
        vals[..., 2] = r_primal
        before = np.where(rows > 0, last[col, rows - 1, agents], agents)
        dy = states[..., p : 2 * p] - pool[col, before, p:]
        vals[..., 3] = np.sqrt(np.einsum("bij,bij->bi", dy, dy))
        ysum = y.sum(axis=2)
        vals[..., 4] = np.sqrt(np.einsum("bij,bij->bi", ysum, ysum))

        bad_state = ~np.isfinite(states).all(axis=2)
        bad_metrics = ~np.isfinite(vals[..., :3]).all(axis=2)
        converged = r_primal < self._stop_eps
        events = bad_state | bad_metrics | converged | (k0 + rows + 1 >= self._max_iters)
        ended = {}
        for b in np.flatnonzero(events.any(axis=1)).tolist():
            r = int(events[b].argmax())
            k, agent = k0 + r, int(agents[b, r]) + 1
            if bad_state[b, r]:
                cause = ("the configured step scale is likely unstable"
                         if self._alive[b].finite_start else
                         "the random start is not finite (solver.init times solver.rho overflows)")
                ended[b] = (k, k, f"diverged: non-finite state at iteration {k} (agent {agent}); "
                                  f"{cause}")
            elif bad_metrics[b, r]:
                ended[b] = (k, k + 1, f"diverged: metrics overflowed at iteration {k} "
                                      f"(agent {agent}); the run is diverging")
            else:
                ended[b] = (k + 1, k + 1, "primal_eps" if converged[b, r] else "max_iters")
        return ended, xy, zs, f[:, -1]

    def _accuracy(self, x: np.ndarray) -> np.ndarray:
        """accuracy() of every run's (chunk, N, p) states, as (B, chunk); run
        by run when a run excludes agents."""
        if self._excluding:
            return np.array([accuracy(xb, xs[0, 0], d[0])
                             for xb, xs, d in zip(x, self._x_star, self._init_dist)])
        return accuracy(x, self._x_star, self._init_dist)

    def run(self) -> RunResult:
        """Run a single run to its end."""
        self._single()
        return self.run_all()[0]

    def run_all(self) -> list[RunResult]:
        """Run every run of the batch to its end; results in batch order.
        After step(), the run goes on after step()'s current chunk."""
        if self._stepped:
            self.k = self._stepped[0]
            self._stepped = self._now = None
        while self._alive:
            self._chunk()
        return [r.result for r in self.runs]

    def _end(self, ended: dict[int, tuple[int, int, str]]) -> None:
        """Results of the ended rows (row -> iterations, transmissions, stop
        reason); the other rows stay in the batch."""
        for b, (k, sent, stop_reason) in ended.items():
            self._alive[b].result = self._result(b, k, sent, stop_reason)
        stay = [b for b in range(len(self._alive)) if b not in ended]
        self._alive = [self._alive[b] for b in stay]
        if ended and stay:
            self._xy, self._z = self._xy[:, stay], self._z[stay]
            self._fvals, self.active = self._fvals[stay], self.active[stay]
            self._columns()

    def _result(self, b: int, k: int, sent: int, stop_reason: str) -> RunResult:
        run, cfg = self._alive[b], self._alive[b].config

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(blk, name)[: blk.n, row] for blk, row in run.blocks])

        senders = cat("agents")[:sent]
        trace = RunTrace(senders[:k], cat("values")[:k], stop_reason)
        transcript = Transcript(
            n_agents=self.n_agents,
            rho=cfg.rho,
            senders=senders,
            receivers=cat("receivers")[:sent],
            z_values=cat("z")[:sent],
            deterministic_init=cfg.variant not in RANDOMIZED_INIT_VARIANTS
            or cfg.init.kind == "zeros",
            stopped_by_eps=stop_reason == "primal_eps",
            stop_eps=cfg.stop_eps,
        )
        history = StateHistory(x0=run.x0, y0=run.y0, agents=senders,
                               x_new=cat("x")[:sent], y_new=cat("y")[:sent])
        x, y = history.states_at(sent)
        z = transcript.z_values[sent - 1].copy() if sent else np.zeros(self.dim)
        return RunResult(trace, transcript, history, x, y, z, k)


def run(problem: Problem, graph: Graph, config: SolverConfig) -> RunResult:
    return Simulation(problem, graph, config).run()


def run_batch(runs: Sequence[tuple]) -> list[RunResult | Exception]:
    """Every (problem, graph, config) of `runs`, run to its end.

    Runs with equal `_Run.key` (N, p, schedule kind, x-update and objective
    kind) step together as one batch; each run's result equals `run` of it
    alone, bit for bit.  Returns, in order, each run's RunResult or the
    exception that stopped it, for the caller to record.
    """
    out: list = [None] * len(runs)
    groups: dict[tuple, list[tuple[int, _Run]]] = {}
    for i, spec in enumerate(runs):
        try:
            r = _Run(*spec)
        except Exception as exc:  # a run that cannot start fails alone
            out[i] = exc
            continue
        groups.setdefault(r.key(), []).append((i, r))
    for members in groups.values():
        try:
            results = Simulation._batch([r for _, r in members]).run_all()
        except Exception as exc:  # an error inside the loop fails its batch
            results = [exc] * len(members)
        for (i, _), res in zip(members, results):
            out[i] = res
    return out


def descent_regimes(
    rho: float, lipschitz: float, n_agents: int, gamma: GammaSpec
) -> dict[str, bool]:
    """Which sufficient descent conditions the configuration satisfies."""
    out = {"descent_fixed_step": rho >= 2.0 * lipschitz + 2.0}
    ok = False
    if rho > lipschitz:
        floor = gamma_lower_bound(rho, lipschitz, n_agents)
        if gamma.kind == "constant":
            ok = gamma.value > floor
        elif gamma.kind == "uniform":
            ok = gamma.lo > floor
        elif gamma.kind == "floor":
            ok = gamma.margin > 1.0
    out["descent_perturbed_step"] = ok
    return out
