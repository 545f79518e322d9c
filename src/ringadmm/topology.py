"""Connected random graphs with an embedded ring, and the random walk on them.

Agents are numbered 1..N.  Every generated graph contains the ring
1 -> 2 -> ... -> N -> 1 by construction; extra edges are sampled uniformly
without replacement until the target density is met, so connectivity never
needs to be searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np


@dataclass(frozen=True)
class Graph:
    n_agents: int
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v, 1-indexed
    # ring order is agent-id order: successor of i is i % N + 1

    def __post_init__(self) -> None:
        n = self.n_agents
        for u, v in self.edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} agents")
        for i in range(1, n + 1):
            j = i % n + 1
            if (min(i, j), max(i, j)) not in self.edges:
                raise ValueError(f"ring edge ({i}, {j}) missing")

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in range(1, self.n_agents + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {i: tuple(sorted(js)) for i, js in adj.items()}


def target_edge_count(n_agents: int, eta: float) -> int:
    # round() is round-half-to-even on ties
    return round(eta * n_agents * (n_agents - 1) / 2)


def generate_graph(n_agents: int, eta: float, seed: int) -> Graph:
    """Connected graph on ``n_agents`` with edge count round(eta*N(N-1)/2).

    The ring over id order is inserted first; remaining edges are drawn
    uniformly without replacement.  eta must be large enough for the ring
    to fit.
    """
    if n_agents < 3:
        raise ValueError("need at least 3 agents")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    target = target_edge_count(n_agents, eta)
    if target < n_agents:
        raise ValueError(
            f"eta={eta} gives {target} edges, fewer than the {n_agents} ring edges"
        )
    edges = {
        (min(i, i % n_agents + 1), max(i, i % n_agents + 1))
        for i in range(1, n_agents + 1)
    }
    # every non-ring pair (u, v), u < v, in lexicographic order
    u, v = np.triu_indices(n_agents, 1)
    keep = (v - u > 1) & ~((u == 0) & (v == n_agents - 1))
    pool_u, pool_v = u[keep] + 1, v[keep] + 1
    extra = target - len(edges)
    rng = np.random.default_rng(seed)
    if extra > 0:
        picks = rng.choice(len(pool_u), size=extra, replace=False)
        edges.update(zip(pool_u[picks].tolist(), pool_v[picks].tolist()))
    return Graph(n_agents, frozenset(edges))


def next_agent(graph: Graph, prev: int, u: float) -> int:
    """The random walk's step from `prev`: the neighbour that the uniform
    draw u in [0, 1) picks, each with probability 1/degree."""
    if not (1 <= prev <= graph.n_agents):
        raise ValueError(f"agent {prev} out of range")
    nbrs = graph.neighbors[prev]
    return nbrs[int(u * len(nbrs))]


def write_edgelist(graph: Graph, fh: IO[str]) -> None:
    """Text edge list: first line N, then one "u v" line per edge."""
    fh.write(f"{graph.n_agents}\n")
    for u, v in sorted(graph.edges):
        fh.write(f"{u} {v}\n")

