"""Run records: per-iteration metrics, the on-the-wire transcript an
eavesdropper would capture, and the ground-truth state history kept by the
simulator for scoring attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

SCHEMA_LINE = "#schema=1"
CSV_EOL = "\r\n"  # the csv module's row terminator, kept by the fast writers

# keys of the transcript's #meta line
META_KEYS = ("n_agents", "rho", "deterministic_init", "stopped_by_eps", "stop_eps")

TRACE_COLUMNS = [
    "k", "agent", "accuracy", "lagrangian", "r_primal", "r_dualstep",
    "r_gradsum", "comm_units", "gamma", "omega_norm",
]


class TranscriptError(ValueError):
    """A transcript file that breaks the schema."""


@dataclass(frozen=True)
class IterationRecord:
    k: int
    agent: int
    accuracy: float
    aug_lagrangian: float
    r_primal: float
    r_dualstep: float
    r_gradsum: float
    comm_units: int
    gamma: float = math.nan      # drawn step-scale, nan when not drawn
    omega_norm: float = math.nan  # norm of injected primal noise, nan when none

    @classmethod
    def from_values(cls, k: int, agent: int, values: list[float]) -> "IterationRecord":
        """Iteration k's record from its RunTrace.values row."""
        acc, lagr, r_primal, r_dualstep, r_gradsum, gamma, omega = values
        return cls(k, agent, acc, lagr, r_primal, r_dualstep, r_gradsum, k + 1, gamma, omega)


# float columns of RunTrace.values, in trace CSV order
TRACE_VALUES = TRACE_COLUMNS[2:7] + TRACE_COLUMNS[8:]


@dataclass
class RunTrace:
    """Per-iteration metrics as columns.  Row k is iteration k: its active
    agent, its TRACE_VALUES, and k + 1 communication units spent.  A run
    asked to fill every `every`-th row (solver.run) holds its five metrics
    on the rows checkpoints(every) keeps and NaN on the others; gamma and
    omega_norm are on every row."""

    agents: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, len(TRACE_VALUES))))
    stop_reason: str = ""

    def __len__(self) -> int:
        return len(self.agents)

    @property
    def diverged(self) -> bool:
        return self.stop_reason.startswith("diverged")

    def record(self, k: int) -> IterationRecord:
        return IterationRecord.from_values(k, int(self.agents[k]), self.values[k].tolist())

    @property
    def records(self) -> list[IterationRecord]:
        return [self.record(k) for k in range(len(self))]

    @property
    def final(self) -> IterationRecord:
        return self.record(len(self) - 1)

    def accuracies(self) -> np.ndarray:
        return self.values[:, 0].copy()

    def lagrangians(self) -> np.ndarray:
        return self.values[:, 1].copy()

    def checkpoints(self, every: int) -> np.ndarray:
        """Rows k with k % every == 0, plus the last row; `every` may exceed
        any int64, as it is capped at the trace length."""
        ks = np.arange(0, len(self), min(every, len(self) or 1))
        if len(self) and ks[-1] != len(self) - 1:
            ks = np.append(ks, len(self) - 1)
        return ks

    def write_csv(self, fh: IO[str], every: int = 1) -> None:
        """One row per `every` iterations; the last record is always kept."""
        ks = self.checkpoints(every)
        lines = [",".join(TRACE_COLUMNS)]
        for k, agent, (acc, lagr, rp, rd, rg, gamma, omega) in zip(
            ks.tolist(), self.agents[ks].tolist(), self.values[ks].tolist()
        ):
            lines.append(f"{k},{agent},{acc!r},{lagr!r},{rp!r},{rd!r},{rg!r},"
                         f"{k + 1},{gamma!r},{omega!r}")
        fh.write(SCHEMA_LINE + "\n" + CSV_EOL.join(lines) + CSV_EOL)


@dataclass
class Transcript:
    """Everything the eavesdropper sees: for each iteration k the link
    (sender -> receiver) and the token value z^{k+1} it carried.  z^0 = 0 is
    protocol knowledge, as are N, rho, and whether the run used the all-zero
    deterministic initialization."""

    n_agents: int
    rho: float
    senders: np.ndarray          # (K+1,) active agent per iteration, 1-indexed
    receivers: np.ndarray        # (K+1,)
    z_values: np.ndarray         # (K+1, p); row k is z^{k+1}
    deterministic_init: bool = True
    stopped_by_eps: bool = False
    stop_eps: float = math.nan

    @property
    def last_iteration(self) -> int:
        return len(self.senders) - 1

    @property
    def dim(self) -> int:
        return self.z_values.shape[1]

    def truncated(self, last_k: int) -> "Transcript":
        if not (0 <= last_k <= self.last_iteration):
            raise ValueError(f"iteration {last_k} outside transcript")
        return Transcript(
            self.n_agents, self.rho,
            self.senders[: last_k + 1], self.receivers[: last_k + 1],
            self.z_values[: last_k + 1],
            self.deterministic_init, self.stopped_by_eps, self.stop_eps,
        )

    def write_csv(self, fh: IO[str]) -> None:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(
            f"#meta n_agents={self.n_agents} rho={self.rho!r} "
            f"deterministic_init={int(self.deterministic_init)} "
            f"stopped_by_eps={int(self.stopped_by_eps)} stop_eps={self.stop_eps!r}\n"
        )
        fh.write(",".join(["k", "from_agent", "to_agent"]
                          + [f"z{c + 1}" for c in range(self.dim)]) + CSV_EOL)
        row = "%d,%d,%d" + ",%r" * self.dim + CSV_EOL
        # in blocks of rows, so that the column lists stay small on long transcripts
        for lo in range(0, len(self.senders), 2048):
            rows = slice(lo, lo + 2048)
            fh.write("".join([row % r for r in zip(
                range(lo, lo + 2048), self.senders[rows].tolist(),
                self.receivers[rows].tolist(), *self.z_values[rows].T.tolist())]))

    @classmethod
    def read_csv(cls, fh: IO[str]) -> "Transcript":
        """Parse and check a transcript file; a file that breaks the schema
        raises TranscriptError naming the first fault found."""
        first = fh.readline().strip()
        if first != SCHEMA_LINE:
            raise TranscriptError(f"unsupported transcript schema line: {first!r}")
        meta_line = fh.readline().strip()
        if not meta_line.startswith("#meta "):
            raise TranscriptError("transcript missing #meta line")
        meta = dict(tok.partition("=")[::2] for tok in meta_line[len("#meta "):].split())
        missing = [key for key in META_KEYS if key not in meta]
        if missing:
            raise TranscriptError(f"#meta line lacks {', '.join(missing)}")
        lines = [line for line in fh.read().splitlines() if line]
        header = lines[0].split(",") if lines else []
        p = len(header) - 3
        if p < 1 or header != ["k", "from_agent", "to_agent"] + [f"z{c + 1}" for c in range(p)]:
            raise TranscriptError(f"header {','.join(header)!r} is not k,from_agent,to_agent,z1..")
        if len(lines) < 2:
            raise TranscriptError("transcript has no iterations")
        try:
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
            n = int(meta["n_agents"])
            flags = {key: bool(int(meta[key])) for key in ("deterministic_init", "stopped_by_eps")}
            rho, stop_eps = float(meta["rho"]), float(meta["stop_eps"])
        except ValueError as exc:
            raise TranscriptError(f"unparsable data: {exc}") from None
        if not (math.isfinite(rho) and rho > 0):
            raise TranscriptError(f"#meta rho={meta['rho']} is not a finite positive number")
        if math.isinf(stop_eps):
            raise TranscriptError(f"#meta stop_eps={meta['stop_eps']} is infinite")
        if table.shape[1] != p + 3:
            raise TranscriptError(f"data rows have {table.shape[1]} fields, the header {p + 3}")
        ks, ids, z = table[:, 0], table[:, 1:3].T, np.ascontiguousarray(table[:, 3:])
        # float64 holds every integer id up to 2**53 exactly
        known = (ids >= 1) & (ids <= min(n, 2**53)) & (ids == np.floor(ids))
        for fault, bad in [("k is not sequential from 0", ks != np.arange(len(ks))),
                           (f"agent id not in 1..{n}", ~np.all(known, axis=0)),
                           ("non-finite z", ~np.all(np.isfinite(z), axis=1))]:
            if np.any(bad):
                raise TranscriptError(f"{fault} in data row {int(np.argmax(bad))}")
        senders, receivers = ids.astype(np.int64, order="C")
        return cls(n, rho, senders, receivers, z, stop_eps=stop_eps, **flags)


@dataclass
class StateHistory:
    """Ground-truth per-iteration states, stored compactly as the initial
    states plus the active agent's post-update state each iteration."""

    x0: np.ndarray               # (N, p)
    y0: np.ndarray               # (N, p)
    agents: np.ndarray           # (K+1,) active agent per iteration
    x_new: np.ndarray            # (K+1, p)
    y_new: np.ndarray            # (K+1, p)

    @property
    def n_agents(self) -> int:
        return self.x0.shape[0]

    @property
    def last_iteration(self) -> int:
        return len(self.agents) - 1

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(x0; x_new) and (y0; y_new): row a-1 is agent a's start, row N+k
        the state set at iteration k."""
        return np.concatenate((self.x0, self.x_new)), np.concatenate((self.y0, self.y_new))

    def trajectory(self, agent: int) -> tuple[np.ndarray, np.ndarray]:
        """States x_agent^k, y_agent^k for k = 0 .. K+1 as (K+2, p) arrays."""
        n = self.n_agents
        # stacked row holding the agent's state after each iteration
        last = np.where(self.agents == agent, n + np.arange(len(self.agents)), agent - 1)
        src = np.concatenate(([agent - 1], np.maximum.accumulate(last)))
        xs, ys = self._stacked()
        return xs[src], ys[src]

    def states_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """All agents' (x, y) at the start of iteration k."""
        m = int(np.clip(k, 0, len(self.agents)))
        src = np.arange(self.n_agents)
        np.maximum.at(src, self.agents[:m] - 1, self.n_agents + np.arange(m))
        xs, ys = self._stacked()
        return xs[src], ys[src]
