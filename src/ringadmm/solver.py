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

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import pairwise
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
    _lipschitz: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.x_star)

    @property
    def n_agents(self) -> int:
        return len(self.objectives)

    def lipschitz(self) -> float:
        """The largest of the objectives' Lipschitz bounds, found once per
        Problem: every run reads it when it starts, and run_configs shares
        one Problem among its runs."""
        if self._lipschitz is None:
            self._lipschitz = max(f.lipschitz_bound() for f in self.objectives)
        return self._lipschitz


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
    *sel,
) -> np.ndarray:
    """New primal iterate of the active agent.

    exact_prox minimizes f(x) + (rho_eff/2)||z - x + y/rho_eff||^2 exactly;
    first_order takes the linearized step z + y/rho_eff - grad f(x)/rho_eff.
    `objective` is one agent's objective, or a RidgeStack or LogisticStack
    with its selection `sel`, passed on as the first argument of the
    stack's prox and gradient; the states are then (B, p) rows of a batch
    and rho_eff a (B, 1) column.  rho_eff must be positive.
    """
    if mode == XUpdateMode.EXACT_PROX:
        return objective.prox(*sel, z, y, rho_eff)
    return first_order_step(z, y, objective.gradient(*sel, x_current), rho_eff)


def first_order_step(z: np.ndarray, y: np.ndarray, gradient: np.ndarray,
                     rho_eff: float | np.ndarray) -> np.ndarray:
    """x_update's first_order step from gradient = grad f(x_current), which
    the solver's logistic operators take as an input (see Simulation._operators)."""
    return z + y / rho_eff - gradient / rho_eff


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
    """A run's trace, transcript, state history, final x, y and z, and its
    number of iterations.

    A result of the solver builds its transcript and history on first
    access to either, from the blocks of its run's chunks, which it holds
    until then (Simulation._result): run_sweep reads the trace alone and
    builds neither."""

    trace: RunTrace
    transcript: Transcript
    history: StateHistory
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    n_iterations: int

    @classmethod
    def _deferred(cls, records, trace: RunTrace, x: np.ndarray, y: np.ndarray,
                  z: np.ndarray, n_iterations: int) -> "RunResult":
        """A result whose transcript and history are records(), called on
        first access."""
        out = cls.__new__(cls)
        vars(out).update(trace=trace, x=x, y=y, z=z, n_iterations=n_iterations,
                         _records=records)
        return out

    def __getattr__(self, name: str):
        # reached only for attributes that are not set
        if name not in ("transcript", "history") or "_records" not in vars(self):
            raise AttributeError(f"'RunResult' object has no attribute {name!r}")
        self.transcript, self.history = vars(self).pop("_records")()
        return vars(self)[name]


def _block_rows(n_agents: int, batch: int) -> int:
    """Iterations per chunk: as many as keep its (batch, rows, N, p) arrays
    within a budget of 2**15 agent states, and at most 1,024.  Each chunk's
    update and metrics passes have a fixed cost, which the longer chunk
    spreads; a run that stops on stop_eps has computed up to one chunk past
    its stop, which it drops.  Simulation._new_block cuts this at the
    shortest run's end and, on a ring, rounds it up to a segment's end.  No
    result depends on the chunk's length."""
    return max(1, min(1024, 2**15 // (n_agents * batch)))


def _segment(dim: int) -> int:
    """The length L of a ring segment at dimension p, 100 at p = 2: a
    segment's token map T, (L + 1) p x L p, then holds about 200^2 doubles
    (320 kB) whatever N is."""
    return max(1, 200 // dim)


def _ring_after(a0: int, n: int, r, a) -> np.ndarray:
    """On a ring chunk whose row 0 is agent a0 (all 0-based), the row of
    _metrics' pool that holds the (x, y) of agents `a` after chunk rows `r`
    (index arrays that broadcast; r = -1 is before the chunk): agent a last
    acted, at or before row r, on row r - ((a0 + r - a) mod N), the pool's
    row N plus that, or before the chunk when it is negative, row a."""
    prev = r - (a0 + r - a) % n
    return np.where(prev >= 0, n + prev, a)


def _windows(agents: np.ndarray, length: int = 0) -> list[int]:
    """The bounds of a chunk's windows, from its (iteration, run) active
    `agents` (0-based); no run's agent acts twice in a window.  On a ring
    with segments of `length` positions a window is one of the ring's fixed
    segments: a new window starts at each agent whose position is a
    multiple of `length` (a chunk of Simulation starts at one), with no
    scan.  On a walk (no `length`) each window runs up to the first
    iteration whose agent acted earlier in it in the same run."""
    n, width = agents.shape
    if length:
        return [0, *(np.flatnonzero(agents[1:, 0] % length == 0) + 1).tolist(), n]
    key = (agents * width + np.arange(width)).ravel()
    order = np.argsort(key, kind="stable")
    repeat = key[order[1:]] == key[order[:-1]]
    before = np.full(n * width, -1)  # the iteration in which the same agent of the run acted last
    before[order[1:][repeat]] = order[:-1][repeat] // width
    bounds = [0]
    for j, b in enumerate(before.reshape(n, width).max(axis=1).tolist()):
        if b >= bounds[-1]:
            bounds.append(j)
    return bounds + [n]


class _Block:
    """Per-iteration values of one chunk of `size` iterations of a batch of
    runs, as (iteration, run, ...) arrays: the active agent and the
    receiver, the agent's new x and y and the token sent (the three blocks
    of `states`), and the RunTrace.values row."""

    def __init__(self, size: int, batch: int, dim: int):
        self.agents = np.empty((size, batch), dtype=np.int64)
        self.receivers = np.empty((size, batch), dtype=np.int64)
        self.states = np.empty((size, batch, 3 * dim))
        self.x = self.states[..., :dim]
        self.y = self.states[..., dim : 2 * dim]
        self.z = self.states[..., 2 * dim :]
        self.values = np.full((size, batch, len(TRACE_VALUES)), math.nan)


class _Run:
    """One run of a batch: its inputs, random stream and start, the trace
    rows it fills (see Simulation), the (block, row) pairs that hold its
    iterations and, once it has ended, its result.

    The stream default_rng(config.seed_solver) gives, in order, the random
    start, then piadmm1's gammas or piadmm2's noise, or wadmm's walk (one
    uniform per iteration, mapped to a neighbour by next_agent), drawn a
    chunk at a time.  Agent 1 is active first; wadmm walks, every other
    variant follows the ring.  A ring run whose operators repeat every cycle
    (all but piadmm1 with a random gamma), a transfer run, takes its tokens
    from the transfer maps of the ring's segments; piadmm1 with a random
    gamma takes them from a scan of each window's steps; a walk steps its
    token one iteration at a time (see Simulation)."""

    def __init__(self, problem: Problem, graph: Graph, config: SolverConfig, every: int = 1):
        if graph.n_agents != problem.n_agents:
            raise ValueError("graph and problem disagree on the number of agents")
        self.kind = stack_kind(problem.objectives)  # here, so that run_batch fails the run alone
        config.__post_init__()  # again: fields may have been set after construction
        if every < 1:
            raise ValueError(f"every must be at least 1, got {every}")
        self.problem, self.graph, self.config, self.every = problem, graph, config, every
        self.cyclic = config.variant != Variant.WADMM_BASELINE
        self.transfer = self.cyclic and not (config.variant == Variant.PIADMM1
                                             and config.gamma.kind not in ("constant", "floor"))
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
                self.config.x_update, self.kind)


class Simulation:
    """Drives a batch of B token-passing runs with equal `_Run.key`; B=1 is
    the ordinary run.

    States are laid out agent-first as (N, B, 2p), x beside y.  In a cyclic
    batch every run activates the same agent; random-walk runs each their
    own.  rho, the gamma draws, the noise and the stopping rules are per-run
    columns.  Each chunk of iterations is stepped in windows in which no
    run's agent acts twice: the ring's fixed segments of up to L positions
    (_segment; L = 100 at p = 2), or a walk's runs of new agents (_windows).
    All that a window reads but the token is there at its start, so its
    agents' (x_i, y_i) are gathered, their gradients (first order) evaluated
    and their new states written back once per window.  Every step is an
    affine map of the state, read off the step functions (_step; a logistic
    one takes the gradients as an input), and precomputed once per batch
    composition as one operator per agent and run (_operators) where it
    repeats every cycle.  A ring run whose operators repeat every cycle,
    a transfer run (`_Run.transfer`), takes a window's tokens in one product
    with its segment's map T (_transfer_maps, built once per batch
    composition), and its new (x, y) in one more; the transfer runs come
    first in the batch.  A piadmm1 ring run that draws gamma, whose
    operators change every iteration, takes a window's tokens from a
    two-level scan of its steps' affine maps and its new (x, y) in one more
    product (_scan), its operators read off at only the points the scan
    needs.  A walk steps its token one iteration at a time: its windows end
    at the first repeat in any run of the batch and at every chunk end, so
    any regrouping of its products would make its rounding depend on its
    batch-mates and the chunk length.  Each chunk is recorded in a
    block of its own (_new_block): up to 1,024 iterations, fewer where N B
    is large (_block_rows) or the shortest run ends sooner, on a ring
    rounded up to a segment's end (whole cycles when N <= L), so every
    window is a whole segment and neither the chunk length nor a run's
    batch-mates change a ring run's rounding.  The metrics of each
    chunk are computed afterwards in one vectorised pass, the only place
    where runs end: each at its chunk's first diverging, converged or last
    allowed iteration, so a run that stops on stop_eps has computed up to
    one chunk past its stop, a ring run whose max_iters ends inside a
    segment up to the segment's end, and drops those iterations.
    Ended runs leave the batch and stay ended.  `k` counts the iterations
    computed, or those that step() has returned.

    A run's trace fills the five metric columns of the rows
    RunTrace.checkpoints(every) keeps: iterations k with k % every == 0, and
    its last row; the other rows hold NaN there.  gamma and omega_norm are
    filled on every row.  every = 1, the default and what step() needs,
    fills them all.  How a run ends does not depend on `every`.
    """

    def __init__(self, problem: Problem, graph: Graph, config: SolverConfig, every: int = 1):
        self._start([_Run(problem, graph, config, every)])

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
        # the transfer rows first, so that they and the others are slices
        self.runs, self._alive = runs, sorted(runs, key=lambda r: not r.transfer)
        self.k = 0
        # step()'s chunk (the end of its iterations to return, first
        # iteration, states, tokens) and x, y, z after the iteration it returned last
        self._stepped = self._now = None
        self.active = np.ones(len(runs), dtype=np.int64)
        self._xy = np.stack([np.hstack([r.x0, r.y0]) for r in self._alive], axis=1)
        self._z = np.zeros((len(runs), self.dim))
        self._columns()
        x0 = np.array([r.x0 for r in self._alive])
        with np.errstate(over="ignore", invalid="ignore"):
            self._fvals = self._stack.value(
                (np.arange(self.n_agents), np.arange(len(runs))[:, None]), x0)

    def _columns(self) -> None:
        """Per-run columns of the runs still in the batch, and the operators
        of those that step through them: a ring's transfer rows, a walk's
        every row."""
        runs = self._alive
        self._stack = stack_objectives([r.problem.objectives for r in runs])
        first_order = runs[0].config.x_update == XUpdateMode.FIRST_ORDER
        self._blocks = 5 if first_order and not self._stack.affine else 4  # of p inputs to _step
        self._rho = np.array([[r.config.rho] for r in runs])
        self._stop_eps = np.array([[r.config.stop_eps] for r in runs])
        self._max_iters = np.array([[r.config.max_iters] for r in runs])
        self._eps = bool((self._stop_eps > 0).any())  # r_primal can stop a run
        self._every = sorted({r.every for r in runs})  # the trace cadences asked for
        self._x_star = np.array([r.problem.x_star for r in runs])[:, None, None]
        self._init_dist = np.array([r.init_dist for r in runs])[:, None]
        self._excluding = not (self._init_dist > 0.0).all()
        # what _finite_metrics reads besides the chunk
        self._scale = (np.abs(self._x_star).max(), self._rho.max(),
                       self._init_dist[self._init_dist > 0.0].min(initial=math.inf))
        self._col = np.arange(len(runs))[:, None]
        self._gamma_rows = [b for b, r in enumerate(runs) if r.config.variant == Variant.PIADMM1]
        self._noise_rows = [b for b, r in enumerate(runs) if r.config.variant == Variant.PIADMM2]
        self._transfers = t = sum(r.transfer for r in runs)  # the first rows
        # a ring's scan rows build their operators per window (_scan)
        cols = self._col[:t, 0] if self.cyclic else self._col[:, 0]
        rho_eff = self._rho[cols]  # rho * gamma for a transfer piadmm1 run's constant gamma
        for b in [b for b in self._gamma_rows if b < t]:
            rho_eff[b] = runs[b].config.rho * self._gammas(b, 1)
        self._ops = self._operators(
            (np.arange(self.n_agents)[:, None], cols), rho_eff, self._rho[cols])
        self._maps = self._transfer_maps(self._ops) if t else {}

    def _gammas(self, b: int, n: int) -> np.ndarray:
        """n gamma draws of the batch's row b, a piadmm1 run."""
        r, cfg = self._alive[b], self._alive[b].config
        return sample_gamma(cfg.gamma, r.rng, cfg.rho, r.lipschitz, self.n_agents, size=n)

    def _transfer_maps(self, ops: np.ndarray) -> dict:
        """Per ring segment of L positions q0..q0 + L - 1 (see _windows), the
        maps of the transfer rows, from their (N, t, rows, 3p) operators
        (_operators): T, with which the tokens z_1..z_L after the segment's
        iterations are [z_0, c_1, ..., c_L] @ T, and the operators' z and (x,
        y) columns of the segment.  z_0 is the token before the segment, and c_j (the
        step's constant) is agent q0 + j's row s with its z block at 0 times
        its z columns, so that z_j = z_(j-1) M_j + c_j with M_j the operator's
        z-to-z block.  T is block upper triangular: the column of z_j holds
        M_(i+1)...M_j in the row of c_i (z_0's for i = 0) and the identity in
        c_j's, each column one product from the one before it; so T takes N
        batched products per batch composition."""
        t, p = ops.shape[1], self.dim
        z_cols, xy_cols = ops[..., 2 * p :].copy(), ops[..., : 2 * p].copy()
        zz = z_cols[:, :, 2 * p : 3 * p]  # the z-to-z blocks M
        bounds = list(range(0, self.n_agents, _segment(p))) + [self.n_agents]
        maps = {}
        for q0, q1 in pairwise(bounds):
            m = q1 - q0
            T = np.zeros((t, (m + 1) * p, m * p))
            diag = np.arange(m)
            T.reshape(t, m + 1, p, m, p)[:, diag + 1, :, diag] = np.eye(p)
            T[:, :p, :p] = zz[q0]
            for i in range(1, m):
                np.matmul(T[:, : (i + 1) * p, (i - 1) * p : i * p], zz[q0 + i],
                          out=T[:, : (i + 1) * p, i * p : (i + 1) * p])
            maps[q0] = (T, z_cols[q0:q1], xy_cols[q0:q1])
        return maps

    def _step(self, sel, s: np.ndarray, rho_eff, rho) -> np.ndarray:
        """x_update (first_order_step, given g), y_update and
        z_update_incremental at the (..., K) states s = (x_i, y_i, z, omega)
        of the agents that the index arrays `sel` pick, or (x_i, y_i, z,
        omega, g) for a first-order step on a logistic stack, g the agent's
        gradient and omega the noise added to x': the new (x_i, y_i, z), as
        (..., 3p).  A logistic exact prox raises its ProxUnsupportedError."""
        mode, p = self.runs[0].config.x_update, self.dim
        # contiguous copies: faster
        x, y, z, omega, *g = [s[..., i * p : (i + 1) * p].copy() for i in range(self._blocks)]
        x_new = (first_order_step(z, y, g[0], rho_eff) if g else
                 x_update(self._stack, x, y, z, rho_eff, mode, sel)) + omega
        y_new = y_update(y, z, x_new, rho_eff)
        z_new = z_update_incremental(z, x, y, x_new, y_new, rho, self.n_agents)
        return np.concatenate([x_new, y_new, z_new], axis=-1)

    def _operators(self, sel, rho_eff, rho) -> np.ndarray:
        """The updates of the agents that the (n, B) index arrays `sel` pick, as
        (n, B, K + 1, 3p) maps A: (x_i', y_i', z') = (s, 1) @ A for the states s
        of _step, K = 4p or 5p.  Read off _step at the K unit vectors, less its
        value at 0, and at 0."""
        width = self._blocks * self.dim
        ops = self._step(sel, np.eye(width + 1, width)[:, None, None], rho_eff, rho)
        ops[:-1] -= ops[-1]
        ops = np.broadcast_to(ops, (len(ops), *np.broadcast(*sel).shape, ops.shape[-1]))
        return ops.transpose(1, 2, 0, 3).copy()

    def _new_block(self) -> _Block:
        """The next chunk's block, the one place where a chunk's length is
        decided: _block_rows iterations, none past the shortest run's end,
        on a ring rounded up to end on a segment's end (see _windows), so
        that every window of the chunk is a whole segment."""
        rows = min(_block_rows(self.n_agents, len(self._alive)),
                   int(self._max_iters.min()) - self.k)
        if self.cyclic:
            n, length = self.n_agents, _segment(self.dim)
            end = (int(self.active[0]) - 1 + rows) % n
            rows += min(-(-end // length) * length, n) - end
        self._block = _Block(rows, len(self._alive), self.dim)
        for b, r in enumerate(self._alive):
            r.blocks.append((self._block, b))
        return self._block

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
        stop rules, one iteration per call, iteration k0 + i of a chunk that
        starts at k0 read off row i of its block.  Once the run has ended, every
        call raises how it ended: its DivergenceError, or a RuntimeError
        naming max_iters or primal_eps."""
        self._single()
        run = self.runs[0]
        if run.every != 1:
            raise ValueError("step() returns every iteration's metrics: it needs every = 1")
        while self._stepped is None or self.k == self._stepped[0]:
            self._stepped = self._now = None
            if run.result:
                reason = run.result.trace.stop_reason
                if run.result.trace.diverged:
                    raise DivergenceError(reason.removeprefix("diverged: "))
                raise RuntimeError(f"the run has ended: {reason}")
            k0, (xy, zs) = self.k, self._chunk()
            end = run.result.n_iterations if run.result else self.k
            self._stepped, self.k = (end, k0, xy[0], zs[0]), k0
        _, k0, xy, zs = self._stepped
        i, block, p = self.k - k0, self._block, self.dim
        self._now, self.k = (xy[i, :, :p], xy[i, :, p:], zs[i]), self.k + 1
        return IterationRecord.from_values(k0 + i, int(block.agents[i, 0]),
                                           block.values[i, 0].tolist())

    def _chunk(self) -> tuple[np.ndarray, np.ndarray]:
        """run()'s next chunk: advance the batch, score it and end the runs
        that stop in it.  Returns the (B, chunk, N, 2p) states and (B, chunk,
        p) tokens after each of its iterations."""
        # non-finite values are caught by the metrics pass, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            chunk = self._advance()
            ended, xy, zs, self._fvals = self._metrics(chunk)
        self._end(ended)
        return xy, zs

    def _advance(self) -> tuple:
        """The next chunk of iterations of every run in the batch, as many as
        its new block has rows (_new_block), stepped window by window (see
        Simulation) and recorded in the block.  The chunk's noise goes
        straight into the noise block of s (see _operators), and a window
        fills the other blocks that the token does not.  Per window, the
        transfer rows' tokens are one product with their segment's T
        (_transfer_maps) and their new (x, y) one more; the other ring rows,
        which draw gamma, take theirs from a scan of the window's steps
        (_scan); a walk's rows step one iteration at a time.  Returns the
        chunk's start for _metrics:
        its first iteration, the (x, y) states side by side as (B, N, 2p)
        and the objective values."""
        block, runs = self._new_block(), self._alive
        k0, width, p, n_agents = self.k, len(runs), self.dim, self.n_agents
        n, xy, t = len(block.agents), self._xy, self._transfers
        chunk = (k0, xy.copy().transpose(1, 0, 2), self._fvals)

        agents, receivers = block.agents, block.receivers
        if self.cyclic:
            ring = np.arange(self.active[0] - 1, self.active[0] + n) % n_agents
            agents[:], receivers[:] = ring[:n, None] + 1, ring[1:, None] + 1
        else:
            # a walking run draws nothing but its walk from its stream (no
            # random start, gamma or noise)
            for b, r in enumerate(runs):
                path = [int(self.active[b])]
                for u in r.rng.random(n).tolist():
                    path.append(next_agent(r.graph, path[-1], u))
                agents[:, b], receivers[:, b] = path[:-1], path[1:]

        # the chunk's gammas (piadmm1), and its noise (piadmm2) in the noise
        # block of s
        pick = agents - 1
        s = np.zeros((n, width, 1, self._blocks * p + 1))
        s[..., -1] = 1.0
        rho_eff = np.empty((n, width - t, 1, 1))  # the scan rows' rho * gamma
        for b in self._gamma_rows:
            gamma = block.values[:, b, 5] = self._gammas(b, n)
            if b >= t:
                rho_eff[:, b - t, 0, 0] = runs[b].config.rho * gamma
        for b in self._noise_rows:
            omega = runs[b].rng.normal(0.0, runs[b].config.sigma, size=(n, p))
            block.values[:, b, 6] = np.sqrt(np.einsum("ij,ij->i", omega, omega))
            s[:, b, 0, 3 * p : 4 * p] = omega

        ops = None if self.cyclic else self._ops[pick, self._col[:, 0]]
        z, s_z, out = self._z, s[:, :, 0, 2 * p : 3 * p], block.states[:, :, None]
        for j0, j1 in pairwise(_windows(pick, _segment(p) if self.cyclic else 0)):
            # the window's agents' states: gathered, stepped and written back once
            sel = (pick[j0:j1], self._col[:, 0])
            q0 = int(pick[j0, 0])  # on a ring, the window's first position
            at = slice(q0, q0 + j1 - j0) if self.cyclic else sel
            old = xy[at]
            s[j0:j1, :, 0, : 2 * p] = old
            if not self._stack.affine:  # the window's gradients, evaluated at once
                s[j0:j1, :, 0, 4 * p : 5 * p] = self._stack.gradient(sel, old[..., :p])
            if t:
                self._transfer(q0, s[j0:j1, :t], z[:t], block.states[j0:j1, :t])
            if self.cyclic and t < width:
                self._scan((pick[j0:j1, t:, None], self._col[t:]), s[j0:j1, t:],
                           rho_eff[j0:j1], z[t:], block.states[j0:j1, t:])
            for j in range(j0, j1) if not self.cyclic else ():  # a walk's chain
                s_z[j] = z
                np.matmul(s[j], ops[j], out=out[j])
                z = block.z[j]
            z = block.z[j1 - 1]
            xy[at] = block.states[j0:j1, :, : 2 * p]
        self._z, self.k = block.z[-1].copy(), k0 + n
        self.active = receivers[-1].copy()
        return chunk

    def _transfer(self, q0: int, s: np.ndarray, z0: np.ndarray, out: np.ndarray) -> None:
        """The transfer rows' iterations of the window at ring position q0,
        from their (m, t, 1, 4p + 1) rows s with the z block at 0 and their
        (t, p) tokens z0 before it (see _transfer_maps): the tokens as one
        product with T, then the new (x, y) with the tokens in s, written to
        `out` (m, t, 3p).  A non-finite c_j would reach the tokens before it
        through T's zero blocks (0 * inf), so it is left out there, and the
        tokens from z_j on are NaN, as a chain of steps makes them."""
        T, z_cols, xy_cols = self._maps[q0]
        m, t, p = len(s), len(z0), self.dim
        v = np.empty((t, m + 1, p))
        v[:, 0] = z0
        c, row = v[:, 1:].transpose(1, 0, 2), v.reshape(t, 1, -1)
        np.matmul(s, z_cols, out=c[:, :, None])
        tokens = (row @ T).reshape(t, m, p).transpose(1, 0, 2)
        if not np.isfinite(tokens[-1]).all():  # then some c_j may be non-finite
            bad = np.logical_or.accumulate(~np.isfinite(c).all(axis=2), axis=0)
            c[bad] = 0.0
            tokens = (row @ T).reshape(t, m, p).transpose(1, 0, 2)
            tokens[bad] = math.nan
        out[..., 2 * p :] = tokens
        s[0, :, 0, 2 * p : 3 * p] = z0
        s[1:, :, 0, 2 * p : 3 * p] = tokens[:-1]
        np.matmul(s, xy_cols, out=out[:, :, None, : 2 * p])

    def _scan(self, sel, s: np.ndarray, rho_eff: np.ndarray, z0: np.ndarray,
              out: np.ndarray) -> None:
        """The scan rows' iterations of a ring window, from the (m, B', 1, K +
        1) rows s of the agents that `sel` picks, with the z block at 0, their
        (m, B', 1, 1) rho * gamma and their (B', p) tokens z0 before it.  Each
        step is [z, 1] @ W_j for the token z before it, W_j (p + 1, 3p) read
        off _step at the p unit tokens, less its value at 0, with the other
        inputs 0, and at s_j; so z_j = z_(j-1) M_j + c_j with M_j and c_j
        W_j's z columns.  The tokens are a two-level scan of the (p + 1) x (p
        + 1) maps [[M_j, 0], [c_j, 1]]: prefix products within blocks of
        about sqrt(m) steps, carried across the blocks, then combined, all
        batched; the new (x, y) are one more product, written with the
        tokens to `out` (m, B', 3p).  The block length depends on m alone,
        and a ring window is a whole segment, so neither a row's batch-mates
        nor the chunk length change its rounding.  The tokens from the first
        non-finite one on are NaN, as the chain makes them non-finite."""
        m, width, p = len(s), len(z0), self.dim
        points = np.zeros((m, width, p + 2, self._blocks * p))
        points[..., 1 : p + 1, 2 * p : 3 * p] = np.eye(p)
        points[..., -1:, :] = s[..., :-1]
        w = self._step(sel, points, rho_eff, self._rho[self._transfers :, :, None])
        w[..., 1 : p + 1, :] -= w[..., :1, :]
        w = w[..., 1:, :]
        size = math.isqrt(m - 1) + 1
        blocks = -(-m // size)
        maps = np.zeros((blocks * size, width, p + 1, p + 1))
        maps[:m, ..., :p] = w[..., 2 * p :]
        maps[m:, :, :p, :p] = np.eye(p)  # the last block is padded with identities
        maps[..., p, p] = 1.0
        maps = maps.reshape(blocks, size, width, p + 1, p + 1)
        for i in range(1, size):
            maps[:, i] = maps[:, i - 1] @ maps[:, i]
        carry = np.empty((blocks, width, 1, p + 1))  # [z, 1] before each block
        carry[0, :, 0, :p], carry[0, ..., p] = z0, 1.0
        for b in range(1, blocks):
            np.matmul(carry[b - 1], maps[b - 1, -1], out=carry[b])
        tokens = np.empty((blocks * size + 1, width, 1, p + 1))  # [z_j, 1] for j = 0, 1, ...
        tokens[0] = carry[0]
        np.matmul(carry[:, None], maps, out=tokens[1:].reshape(blocks, size, width, 1, p + 1))
        if not np.isfinite(tokens[m]).all():
            bad = np.logical_or.accumulate(~np.isfinite(tokens[1 : m + 1]).all(axis=(2, 3)))
            tokens[1 : m + 1][bad] = math.nan
        np.matmul(tokens[:m], w[..., : 2 * p], out=out[:, :, None, : 2 * p])
        out[..., 2 * p :] = tokens[1 : m + 1, :, 0, :p]

    def _metrics(self, chunk: tuple) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
        """Metrics of the chunk that _advance just recorded, one row of its
        block per iteration, and where runs end.

        A run ends at its first iteration of the chunk that has a non-finite
        state, has non-finite metrics, has r_primal < stop_eps or is its
        max_iters-th (checked in that order).  A non-finite state drops the
        iteration; non-finite metrics keep its transmission but not its
        trace row; a stop keeps it whole.

        The rows scored are those some run asks for (k % every == 0), those
        at and before each run's ending, and the chunk's last: it gives the
        next chunk's objective values, and the last trace row of a run that
        diverges on the next chunk's first iteration.  _result keeps each
        run's own checkpoint rows of them.  Every ending is still found on
        its own row: when some run has stop_eps > 0, r_primal is scored in
        full on every row where its lower bound, the gap of the agent that
        receives the token, is below stop_eps (with a relative margin of
        1e-9 for rounding), and every metric on every row when
        _finite_metrics cannot prove them finite.  The states are gathered
        only at the rows read: on a ring through the arithmetic of
        _ring_after, on a walk from a table of every agent's last update
        after every row.  Returns, per ended row of
        the batch, the run's iterations, its transmissions, its stop reason
        and its (N, 2p) states after its last transmission (a row scored
        here, or the chunk's start); the (B, rows, N, 2p) states and (B, rows, p) tokens
        after each scored iteration (all of the chunk's when every = 1); and
        the (B, N) objective values after the chunk.
        """
        (k0, start, f0), block = chunk, self._block
        n, p, col = self.n_agents, self.dim, self._col
        c, agents = len(block.agents), block.agents.T - 1
        rows = np.arange(c)
        states = block.states.transpose(1, 0, 2)
        zs = states[..., 2 * p :]

        # every agent's (x, y) before each iteration of the chunk and after
        # its last: row `after(r, a)` of `pool`, the start states followed by
        # the chunk's updates, holds agent a's after chunk row r (r = -1:
        # before the chunk); the objective values likewise from `fpool`.
        # The index arrays a lead with one axis per distinct schedule of the
        # batch: one on a ring, where the arithmetic of _ring_after needs no
        # table, and one per run on a walk.
        pool = np.concatenate([start, states[..., : 2 * p]], axis=1)
        fpool = np.concatenate([f0, self._stack.value((agents, col), states[..., :p])], axis=1)
        if self.cyclic:
            who, a0 = agents[:1], int(agents[0, 0])

            def after(r, a):
                return _ring_after(a0, n, r, a)
        else:
            who = agents
            latest = np.empty((len(col), c + 1, n), dtype=np.int64)
            latest[:] = np.arange(n)
            latest[col, rows + 1, agents] = rows + n
            np.maximum.accumulate(latest, axis=1, out=latest)

            def after(r, a):
                return latest[col.reshape(-1, *[1] * (a.ndim - 1)), r + 1, a]

        def gather(at: np.ndarray) -> list:
            """The (x, y) states, objective values, gaps z - x_i, their
            squared norms and r_primal after the chunk rows `at`."""
            idx = after(at[:, None], np.arange(n)[None, None])
            xy = pool[col[..., None], idx]
            # gaps are formed before any reduction so near-consensus values do
            # not cancel catastrophically
            gap = zs[:, at, None, :] - xy[..., :p]
            sq = np.einsum("bcij,bcij->bci", gap, gap)
            return [xy, fpool[col[..., None], idx], gap, sq, np.sqrt(sq.max(axis=2))]

        def asked(events: np.ndarray) -> np.ndarray:
            """The chunk rows some run asks for, those at and before the
            first event of each run that has one, and the last."""
            want = np.zeros(c, dtype=bool)
            for every in self._every:
                want[-k0 % every :: every] = True
            ending = events.any(axis=1)
            if ending.any():
                first = events.argmax(axis=1)[ending]
                want[first] = want[np.maximum(first - 1, 0)] = True
            want[-1] = True
            return np.flatnonzero(want)

        bad_state = ~np.isfinite(states).all(axis=2)
        events = bad_state | (k0 + rows + 1 >= self._max_iters)
        converged = np.zeros_like(bad_state)
        proved = self._finite_metrics(start, states, fpool)
        if proved:
            if self._eps:
                # r_primal is at least the receiver's gap (an O(p) bound), so
                # it is scored in full only where that gap is below stop_eps,
                # with a margin for the two sums' rounding
                x_recv = pool[col, after(rows, block.receivers.T[: len(who)] - 1), :p]
                near = np.linalg.norm(zs - x_recv, axis=2) < self._stop_eps * (1 + 1e-9)
                maybe = np.flatnonzero(near.any(axis=0))
                converged[:, maybe] = gather(maybe)[-1] < self._stop_eps
                events |= converged
            at = asked(events)
            scored = gather(at)
        else:  # non-finite metrics may end a run on any row
            scored = gather(rows)
            converged = scored[-1] < self._stop_eps
            events |= converged
            at = rows
        xy, f, gap, sq, r_primal = scored
        x, y = xy[..., :p], xy[..., p:]
        vals = np.empty((len(col), len(at), 5))
        vals[..., 0] = self._accuracy(x)
        vals[..., 1] = f.sum(axis=2) + np.einsum("bcij,bcij->bc", y, gap) \
            + 0.5 * self._rho * sq.sum(axis=2)
        vals[..., 2] = r_primal
        dy = states[:, at, p : 2 * p] - pool[col, after(at - 1, who[:, at]), p:]
        vals[..., 3] = np.sqrt(np.einsum("bij,bij->bi", dy, dy))
        ysum = y.sum(axis=2)
        vals[..., 4] = np.sqrt(np.einsum("bij,bij->bi", ysum, ysum))
        block.values[at, :, :5] = vals.transpose(1, 0, 2)
        bad_metrics = np.zeros_like(bad_state) if proved else \
            ~np.isfinite(vals[..., :3]).all(axis=2)
        events |= bad_metrics

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
            last = ended[b][1] - 1 - k0  # the chunk row after which the run's states are final
            ended[b] += (xy[b, np.searchsorted(at, last)] if last >= 0 else start[b],)
        return ended, xy, zs[:, at], f[:, -1]

    def _finite_metrics(self, start: np.ndarray, states: np.ndarray, f: np.ndarray) -> bool:
        """Whether accuracy, the Lagrangian and r_primal are finite on every
        row of a chunk, from its (B, N, 2p) start states, (B, c, 3p) new
        states and (B, N + c) objective values (start, then new).

        On every row, each x_i, y_i and f_i is agent i's start value or one
        of the chunk's new values, and z is one of its tokens; so every
        entry of x, y and z is at most M in magnitude, and every f_i at
        most F, the largest magnitudes among those values.  With S the
        largest |x*|, d the smallest nonzero start distance ||x_i^0 - x*||,
        D = M + S and G = 2M:
        - accuracy sums p squares of at most D per agent, and its N ratios
          add up to at most N sqrt(p) D / d;
        - r_primal's squares sum to at most p G^2 per agent;
        - the Lagrangian's terms add up to at most N (F + p M G + rho p G^2 / 2),
          and its squares to at most N p G^2.
        Every partial sum and product on the way is bounded by one of these
        sums of magnitudes, and rounding enlarges none of them by more than
        a factor 1 + 2^-20.  So bounds of at most 2^1000 leave nothing that
        reaches the largest double (about 2^1024): no infinity, and so no
        NaN, whose only sources here are inf - inf, 0 * inf and inf / inf.
        An inf or NaN among the inputs fails the check.
        """
        p, n = self.dim, self.n_agents
        s, rho, d = self._scale
        m = np.maximum(np.abs(start).max(), np.abs(states).max())  # keeps NaN
        dx, g, f = m + s, 2.0 * m, np.abs(f).max()
        bounds = (p * dx * dx, n * math.sqrt(p) * dx / d, n * (f + p * m * g + p * (1 + rho) * g * g))
        return all(b <= 2.0**1000 for b in bounds)

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

    def _end(self, ended: dict[int, tuple]) -> None:
        """Results of the ended rows (row -> iterations, transmissions, stop
        reason, final states); the other rows stay in the batch."""
        for b, end in ended.items():
            self._alive[b].result = self._result(b, *end)
        stay = [b for b in range(len(self._alive)) if b not in ended]
        self._alive = [self._alive[b] for b in stay]
        if ended and stay:
            self._xy, self._z = self._xy[:, stay], self._z[stay]
            self._fvals, self.active = self._fvals[stay], self.active[stay]
            self._columns()

    def _result(self, b: int, k: int, sent: int, stop_reason: str,
                final: np.ndarray) -> RunResult:
        """Row b's result: its trace, from its first k rows, and final
        states now; its transcript and history, from its first `sent`
        rows, on first access (_records), so that a caller that reads the
        trace alone concatenates nothing else."""
        run, cfg = self._alive[b], self._alive[b].config
        trace = RunTrace(_cat(run.blocks, "agents", k), _cat(run.blocks, "values", k),
                         stop_reason)
        # _metrics scored more rows than these; keep the run's own
        skipped = np.ones(k, dtype=bool)
        skipped[trace.checkpoints(run.every)] = False
        trace.values[skipped, :5] = math.nan
        meta = dict(n_agents=self.n_agents, rho=cfg.rho,
                    deterministic_init=cfg.variant not in RANDOMIZED_INIT_VARIANTS
                    or cfg.init.kind == "zeros",
                    stopped_by_eps=stop_reason == "primal_eps", stop_eps=cfg.stop_eps)
        x, y = final[:, : self.dim].copy(), final[:, self.dim :].copy()
        z, i = np.zeros(self.dim), sent - 1  # the token after the last transmission
        for blk, row in run.blocks if sent else ():
            if i < len(blk.z):
                z = blk.z[i, row].copy()
                break
            i -= len(blk.z)
        records = functools.partial(_records, run.blocks, sent, meta, run.x0, run.y0)
        return RunResult._deferred(records, trace, x, y, z, k)


def _cat(blocks: list, name: str, n: int) -> np.ndarray:
    """The first n rows of a run's _Block attribute `name`, from the (block,
    row) pairs that hold its iterations (see _Run)."""
    return np.concatenate([getattr(blk, name)[:, row] for blk, row in blocks])[:n]


def _records(blocks: list, sent: int, meta: dict, x0: np.ndarray,
             y0: np.ndarray) -> tuple[Transcript, StateHistory]:
    """A run's Transcript (its other fields in `meta`) and StateHistory (its
    start x0, y0) of its first `sent` iterations in `blocks` (see _cat)."""
    senders = _cat(blocks, "agents", sent)
    transcript = Transcript(senders=senders, receivers=_cat(blocks, "receivers", sent),
                            z_values=_cat(blocks, "z", sent), **meta)
    history = StateHistory(x0=x0, y0=y0, agents=senders, x_new=_cat(blocks, "x", sent),
                           y_new=_cat(blocks, "y", sent))
    return transcript, history


def run(problem: Problem, graph: Graph, config: SolverConfig, every: int = 1) -> RunResult:
    """The run, its trace's metrics filled every `every` iterations and on
    its last row (see Simulation)."""
    return Simulation(problem, graph, config, every).run()


def run_batch(runs: Sequence[tuple]) -> list[RunResult | Exception]:
    """Every (problem, graph, config) or (problem, graph, config, every) of
    `runs`, run to its end; `every` (default 1) as in `run`.

    Runs with equal `_Run.key` (N, p, schedule kind, x-update and objective
    kind) step together as one batch, whatever their `every`; each run's
    result equals `run` of it alone, bit for bit.  Returns, in order, each
    run's RunResult or the exception that stopped it, for the caller to
    record.
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
