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

from .records import TRACE_VALUES, IterationRecord, RunTrace, StateHistory, Transcript
from .topology import ActivationSchedule, Graph, next_agent


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
    rho: float
    variant: Variant = Variant.IADMM
    x_update: XUpdateMode = XUpdateMode.EXACT_PROX
    gamma: GammaSpec = field(default_factory=lambda: GammaSpec.constant(1.0))
    sigma: float = 0.0
    init: InitSpec = field(default_factory=InitSpec.zeros)
    seed: int = 0
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
    rho_eff: float,
    mode: XUpdateMode,
) -> np.ndarray:
    """New primal iterate of the active agent.

    exact_prox minimizes f(x) + (rho_eff/2)||z - x + y/rho_eff||^2 exactly;
    first_order takes the linearized step z + y/rho_eff - grad f(x)/rho_eff.
    """
    if rho_eff <= 0:
        raise ValueError("rho_eff must be positive")
    if mode == XUpdateMode.EXACT_PROX:
        return objective.prox(z, y, rho_eff)
    return z + y / rho_eff - objective.gradient(x_current) / rho_eff


def y_update(y: np.ndarray, z: np.ndarray, x_new: np.ndarray, rho_eff: float) -> np.ndarray:
    if rho_eff <= 0:
        raise ValueError("rho_eff must be positive")
    return y + rho_eff * (z - x_new)


def z_update_incremental(
    z: np.ndarray,
    x_old: np.ndarray,
    y_old: np.ndarray,
    x_new: np.ndarray,
    y_new: np.ndarray,
    rho: float,
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

    x holds the (N, p) states, or a (C, N, p) stack of them with one value
    per state.  Agents whose start coincides with x* are excluded (the mean
    runs over the remaining agents) after a warning; 0.0 if nobody remains.
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
    return ratio.sum(axis=-1) / max(len(init_dist), 1)


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
        for i in range(n):
            v = rng.uniform(config.init.lo, config.init.hi, size=dim)
            y[i] = config.rho * v
            x[i] = y[i] / config.rho
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


def _block_rows(n_agents: int) -> int:
    """Iterations per block, and so per metrics pass: one cycle, but at least
    32 to share the pass's fixed cost, and few enough that its (rows, N, p)
    arrays stay near 2**14 agent states."""
    return max(1, min(max(n_agents, 32), 2**14 // n_agents))


class _Block:
    """Per-iteration values of up to `size` consecutive iterations: the active
    agent and the receiver, the agent's new x and y and the token sent (the
    three blocks of `states`), and the RunTrace.values row."""

    def __init__(self, size: int, dim: int):
        self.n = 0
        self.agents = np.empty(size, dtype=np.int64)
        self.receivers = np.empty(size, dtype=np.int64)
        self.states = np.empty((size, 3 * dim))
        self.x = self.states[:, :dim]
        self.y = self.states[:, dim : 2 * dim]
        self.z = self.states[:, 2 * dim :]
        self.values = np.full((size, len(TRACE_VALUES)), math.nan)

    @property
    def free(self) -> int:
        return len(self.agents) - self.n


class Simulation:
    """Drives one token-passing run; states live in (N, p) arrays.

    Each iteration only updates the states and records them in blocks of
    about one cycle (see _block_rows).  The metrics of each chunk of
    iterations are computed afterwards in one vectorised pass, which also
    ends the run at the chunk's first diverging or converged iteration.
    """

    def __init__(
        self,
        problem: Problem,
        graph: Graph,
        config: SolverConfig,
        schedule: ActivationSchedule | None = None,
    ):
        if graph.n_agents != problem.n_agents:
            raise ValueError("graph and problem disagree on the number of agents")
        if schedule is None:
            kind = "random_walk" if config.variant == Variant.WADMM_BASELINE else "cyclic"
            schedule = ActivationSchedule(kind=kind, seed=config.seed)
        self.problem = problem
        self.graph = graph
        self.config = config
        self.schedule = schedule
        self.rng = np.random.default_rng(config.seed)
        self.lipschitz = problem.lipschitz()
        self.x, self.y, self.z = initialize(graph, config, problem.dim, self.rng)
        self._x0 = self.x.copy()
        self._y0 = self.y.copy()
        self._init_dist = np.linalg.norm(self.x - problem.x_star, axis=1)
        self._fvals = np.array(
            [f.value(self.x[i]) for i, f in enumerate(problem.objectives)]
        )
        self.k = 0
        self.active = schedule.first_agent()
        self._blocks = [_Block(_block_rows(graph.n_agents), problem.dim)]
        self._n_records = 0

    def step(self) -> IterationRecord:
        """Advance one iteration; DivergenceError if its state or metrics
        are not finite."""
        # non-finite values are caught by the metrics pass, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            self._room()
            self._metrics(self._advance(1), stop_eps=-math.inf)
        block = self._blocks[-1]
        return IterationRecord.from_values(
            self.k - 1, int(block.agents[block.n - 1]), block.values[block.n - 1].tolist()
        )

    def _room(self) -> int:
        """Free rows of the last block; a full block is followed by a new one."""
        if not self._blocks[-1].free:
            self._blocks.append(_Block(len(self._blocks[-1].agents), self.problem.dim))
        return self._blocks[-1].free

    def _advance(self, n: int) -> tuple:
        """n iterations of the state update, recorded in the next n rows of
        the last block, which must have room for them.  Returns the chunk's
        start for _metrics: its first row and iteration, the (x, y) states
        side by side, z and the objective values."""
        cfg = self.config
        block = self._blocks[-1]
        lo = block.n
        chunk = (lo, self.k, np.concatenate([self.x, self.y], axis=1), self.z, self._fvals)
        rho_eff = [cfg.rho] * n
        if cfg.variant == Variant.PIADMM1:
            gamma = sample_gamma(cfg.gamma, self.rng, cfg.rho, self.lipschitz,
                                 self.graph.n_agents, size=n)
            block.values[lo : lo + n, 5] = gamma
            rho_eff = (cfg.rho * gamma).tolist()
        if cfg.variant == Variant.PIADMM2:
            omega = self.rng.normal(0.0, cfg.sigma, size=(n, self.problem.dim))
            block.values[lo : lo + n, 6] = np.sqrt(np.einsum("ij,ij->i", omega, omega))

        objectives, x, y, z = self.problem.objectives, self.x, self.y, self.z
        agent, k = self.active, self.k
        for j in range(n):
            i = agent - 1
            x_old, y_old = x[i], y[i]
            x_new = x_update(objectives[i], x_old, y_old, z, rho_eff[j], cfg.x_update)
            if cfg.variant == Variant.PIADMM2:
                x_new = x_new + omega[j]
            y_new = y_update(y_old, z, x_new, rho_eff[j])
            z = z_update_incremental(z, x_old, y_old, x_new, y_new, cfg.rho,
                                     self.graph.n_agents)
            x[i], y[i] = x_new, y_new
            row = lo + j
            block.agents[row] = agent
            block.x[row], block.y[row], block.z[row] = x_new, y_new, z
            agent = next_agent(self.schedule, self.graph, k, agent)
            block.receivers[row] = agent
            k += 1
        block.n = lo + n
        self.z, self.active, self.k = z, agent, k
        return chunk

    def _metrics(self, chunk: tuple, stop_eps: float) -> bool:
        """Metrics of the chunk that _advance just recorded.

        At the chunk's first iteration that has a non-finite state, has
        non-finite metrics, or has r_primal < stop_eps (checked in that
        order), the run is rolled back to that iteration.  A non-finite
        state drops the iteration; non-finite metrics keep its state and
        transmission but not its trace row; a stop keeps it whole.
        Divergence raises DivergenceError; a stop returns True.
        """
        block = self._blocks[-1]
        lo, k0, start, z0, f0 = chunk
        hi = block.n
        c, n, p = hi - lo, self.graph.n_agents, self.problem.dim
        agents = block.agents[lo:hi] - 1
        rows = np.arange(c)

        # every agent's (x, y) after each iteration of the chunk: row `last`
        # of `pool`, the start states followed by the chunk's updates
        pool = np.concatenate([start, block.states[lo:hi, : 2 * p]])
        last = np.empty((c, n), dtype=np.int64)
        last[:] = np.arange(n)
        last[rows, agents] = rows + n
        np.maximum.accumulate(last, axis=0, out=last)
        xy = pool[last]
        x, y = xy[..., :p], xy[..., p:]
        f_new = [self.problem.objectives[a].value(xi)
                 for a, xi in zip(agents.tolist(), block.x[lo:hi])]
        f = np.concatenate([f0, f_new])[last]
        zs = block.z[lo:hi]
        # gaps are formed before any reduction so near-consensus values do
        # not cancel catastrophically
        gap = zs[:, None, :] - x
        sq = np.einsum("cij,cij->ci", gap, gap)
        r_primal = np.sqrt(sq.max(axis=1))
        vals = block.values[lo:hi]
        vals[:, 0] = accuracy(x, self.problem.x_star, self._init_dist)
        vals[:, 1] = f.sum(axis=1) + np.einsum("cij,cij->c", y, gap) \
            + 0.5 * self.config.rho * sq.sum(axis=1)
        vals[:, 2] = r_primal
        before = np.where(rows > 0, last[rows - 1, agents], agents)
        dy = block.y[lo:hi] - pool[before, p:]
        vals[:, 3] = np.sqrt(np.einsum("ij,ij->i", dy, dy))
        ysum = y.sum(axis=1)
        vals[:, 4] = np.sqrt(np.einsum("ij,ij->i", ysum, ysum))

        bad_state = ~np.isfinite(block.states[lo:hi]).all(axis=1)
        bad_metrics = ~np.isfinite(vals[:, :3]).all(axis=1)
        events = np.flatnonzero(bad_state | bad_metrics | (r_primal < stop_eps))
        if not len(events):
            self._fvals = f[-1]
            self._n_records += c
            return False

        r = int(events[0])
        k, agent = k0 + r, int(agents[r]) + 1
        error = None
        if bad_state[r]:
            keep, records = r, r
            error = (f"non-finite state at iteration {k} (agent {agent}); "
                     f"the configured step scale is likely unstable")
        elif bad_metrics[r]:
            keep, records = r + 1, r
            error = (f"metrics overflowed at iteration {k} (agent {agent}); "
                     f"the run is diverging")
        else:
            keep, records = r + 1, r + 1
            agent = int(block.receivers[lo + r])
        block.n = lo + keep
        self._n_records += records
        self.k, self.active = k0 + records, agent
        if keep:
            self.x[:], self.y[:], self.z = x[keep - 1], y[keep - 1], zs[keep - 1].copy()
            self._fvals = f[keep - 1]
        else:
            self.x[:], self.y[:], self.z, self._fvals = start[:, :p], start[:, p:], z0, f0
        if error is not None:
            raise DivergenceError(error)
        return True

    def run(self) -> RunResult:
        cfg = self.config
        stopped_by_eps = False
        stop_reason = "max_iters"
        diverged = False
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                while self.k < cfg.max_iters:
                    chunk = self._advance(min(self._room(), cfg.max_iters - self.k))
                    if self._metrics(chunk, cfg.stop_eps):
                        stopped_by_eps = True
                        stop_reason = "primal_eps"
                        break
        except DivergenceError as exc:
            diverged = True
            stop_reason = f"diverged: {exc}"

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(b, name)[: b.n] for b in self._blocks])

        senders = cat("agents")
        trace = RunTrace(senders[: self._n_records], cat("values")[: self._n_records],
                         diverged, stop_reason)
        transcript = Transcript(
            n_agents=self.graph.n_agents,
            rho=cfg.rho,
            senders=senders,
            receivers=cat("receivers"),
            z_values=cat("z"),
            deterministic_init=cfg.variant not in RANDOMIZED_INIT_VARIANTS
            or cfg.init.kind == "zeros",
            stopped_by_eps=stopped_by_eps,
            stop_eps=cfg.stop_eps,
        )
        history = StateHistory(
            x0=self._x0, y0=self._y0, agents=senders, x_new=cat("x"), y_new=cat("y"),
        )
        return RunResult(
            trace=trace,
            transcript=transcript,
            history=history,
            x=self.x,
            y=self.y,
            z=self.z,
            n_iterations=self.k,
        )


def run(
    problem: Problem,
    graph: Graph,
    config: SolverConfig,
    schedule: ActivationSchedule | None = None,
) -> RunResult:
    return Simulation(problem, graph, config, schedule).run()


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
