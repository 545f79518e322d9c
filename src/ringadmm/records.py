"""Run records: per-iteration metrics, the on-the-wire transcript an
eavesdropper would capture, and the ground-truth state history kept by the
simulator for scoring attacks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

SCHEMA_LINE = "#schema=1"
CSV_EOL = "\r\n"  # the csv module's row terminator, kept by the fast writers

TRACE_COLUMNS = [
    "k", "agent", "accuracy", "lagrangian", "r_primal", "r_dualstep",
    "r_gradsum", "comm_units", "gamma", "omega_norm",
]


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
    agent, its TRACE_VALUES, and k + 1 communication units spent."""

    agents: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, len(TRACE_VALUES))))
    diverged: bool = False
    stop_reason: str = ""

    def __len__(self) -> int:
        return len(self.agents)

    def record(self, k: int) -> IterationRecord:
        return IterationRecord.from_values(k, int(self.agents[k]), self.values[k].tolist())

    @property
    def records(self) -> list[IterationRecord]:
        return [self.record(k) for k in range(len(self))]

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self.records)

    @property
    def final(self) -> IterationRecord:
        return self.record(len(self) - 1)

    def accuracies(self) -> np.ndarray:
        return self.values[:, 0].copy()

    def lagrangians(self) -> np.ndarray:
        return self.values[:, 1].copy()

    def checkpoints(self, every: int) -> np.ndarray:
        """Rows k with k % every == 0, plus the last row."""
        ks = np.arange(0, len(self), every)
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

    def z_before(self, k: int) -> np.ndarray:
        """Token value z^k at the start of iteration k."""
        if k == 0:
            return np.zeros(self.dim)
        return self.z_values[k - 1]

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
        lines = [",".join(["k", "from_agent", "to_agent"]
                          + [f"z{c + 1}" for c in range(self.dim)])]
        for k, (s, r, z) in enumerate(
            zip(self.senders.tolist(), self.receivers.tolist(), self.z_values.tolist())
        ):
            lines.append(f"{k},{s},{r}," + ",".join(map(repr, z)))
        fh.write(CSV_EOL.join(lines) + CSV_EOL)

    @classmethod
    def read_csv(cls, fh: IO[str]) -> "Transcript":
        first = fh.readline().strip()
        if first != SCHEMA_LINE:
            raise ValueError(f"unsupported transcript schema line: {first!r}")
        meta_line = fh.readline().strip()
        if not meta_line.startswith("#meta "):
            raise ValueError("transcript missing #meta line")
        meta = dict(tok.split("=", 1) for tok in meta_line[len("#meta "):].split())
        rows = [r for r in csv.reader(fh) if r]
        header, data = rows[0], rows[1:]
        p = len(header) - 3
        senders = np.array([int(r[1]) for r in data])
        receivers = np.array([int(r[2]) for r in data])
        z = np.array([[float(x) for x in r[3 : 3 + p]] for r in data])
        return cls(
            n_agents=int(meta["n_agents"]),
            rho=float(meta["rho"]),
            senders=senders,
            receivers=receivers,
            z_values=z,
            deterministic_init=bool(int(meta["deterministic_init"])),
            stopped_by_eps=bool(int(meta["stopped_by_eps"])),
            stop_eps=float(meta["stop_eps"]),
        )


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

    def trajectory(self, agent: int) -> tuple[np.ndarray, np.ndarray]:
        """States x_agent^k, y_agent^k for k = 0 .. K+1 as (K+2, p) arrays."""
        kk = self.last_iteration + 2
        p = self.x0.shape[1]
        xs = np.empty((kk, p))
        ys = np.empty((kk, p))
        x = self.x0[agent - 1]
        y = self.y0[agent - 1]
        xs[0], ys[0] = x, y
        for k in range(kk - 1):
            if self.agents[k] == agent:
                x, y = self.x_new[k], self.y_new[k]
            xs[k + 1], ys[k + 1] = x, y
        return xs, ys

    def states_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """All agents' (x, y) at the start of iteration k."""
        x = self.x0.copy()
        y = self.y0.copy()
        for j in range(min(k, self.last_iteration + 1)):
            a = self.agents[j] - 1
            x[a] = self.x_new[j]
            y[a] = self.y_new[j]
        return x, y
