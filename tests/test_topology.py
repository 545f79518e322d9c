import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cfg
from ringadmm.harness import build_problem
from ringadmm.verify import _bfs_connected as bfs_connected
from ringadmm.solver import Variant, run
from ringadmm.topology import (
    Graph,
    generate_graph,
    next_agent,
    target_edge_count,
    write_edgelist,
)


class TestGenerateGraph:
    def test_triangle(self):
        g = generate_graph(3, 1.0, seed=0)
        assert len(g.edges) == 3
        assert (1, 3) in g.edges  # the ring closes from agent 3 back to 1

    def test_large_network_edge_count(self):
        g = generate_graph(100, 0.3, seed=1)
        assert len(g.edges) == 1485

    def test_small_graph_connected_with_ring(self):
        g = generate_graph(10, 0.25, seed=7)
        assert len(g.edges) == 11
        assert bfs_connected(g)
        for i in range(1, 11):
            j = i % 10 + 1
            assert (min(i, j), max(i, j)) in g.edges

    def test_eta_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_graph(10, 0.1, seed=0)  # 4 edges cannot host the ring

    def test_round_half_even(self):
        assert target_edge_count(4, 0.75) == 4  # 4.5 rounds to even
        g = generate_graph(4, 0.75, seed=0)
        assert len(g.edges) == 4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.floats(0.3, 1.0))
    def test_connected_and_exact_density(self, seed, n, eta):
        target = target_edge_count(n, eta)
        if target < n:
            return
        g = generate_graph(n, eta, seed)
        assert bfs_connected(g)
        assert len(g.edges) == target

    @pytest.mark.parametrize("n, eta", [(3, 1.0), (4, 1.0), (5, 0.75), (10, 0.25), (10, 1.0),
                                        (23, 0.3), (50, 0.5), (100, 0.3)])
    def test_graphs_equal_those_of_the_list_comprehension_pool(self, n, eta):
        """The edge pool as it was built before: a list of every non-ring
        pair (u, v), u < v, in lexicographic order, picked by index."""
        for seed in (0, 1, 7):
            edges = {(min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)}
            pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                    if (u, v) not in edges]
            extra = target_edge_count(n, eta) - len(edges)
            if extra > 0:
                for idx in np.random.default_rng(seed).choice(len(pool), size=extra,
                                                               replace=False):
                    edges.add(pool[idx])
            g = generate_graph(n, eta, seed)
            assert g.edges == frozenset(edges) and list(g.edges) == list(frozenset(edges))
            assert all(type(u) is int and type(v) is int for u, v in g.edges)

    def test_ring_edge_missing_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))  # no (1, 4)


class TestSchedules:
    def test_cyclic_wraparound(self):
        cfg = make_cfg(n_agents=5, eta=1.0, max_iters=12)
        graph, problem = build_problem(cfg)
        tr = run(problem, graph, cfg).transcript
        links = set(zip(tr.senders.tolist(), tr.receivers.tolist()))
        assert len(links) == 5  # one receiver per sender
        successor = dict(links)
        assert successor[5] == 1
        assert successor[2] == 3

    def test_cyclic_visits_everyone_once_per_cycle(self):
        cfg = make_cfg(n_agents=7, eta=1.0, max_iters=21)
        graph, problem = build_problem(cfg)
        tr = run(problem, graph, cfg).transcript
        assert len(tr.senders) == 21
        assert tr.receivers[:-1].tolist() == tr.senders[1:].tolist()
        for start in range(0, 21, 7):
            assert set(tr.senders[start : start + 7].tolist()) == set(range(1, 8))

    def test_random_walk_stays_on_edges(self):
        g = generate_graph(12, 0.3, seed=5)
        agent = 1
        for u in np.random.default_rng(9).random(200):
            nxt = next_agent(g, agent, u)
            assert nxt in g.neighbors[agent]
            agent = nxt

    def test_wadmm_walk_replays_from_the_run_stream(self):
        cfg = make_cfg(n_agents=10, eta=0.4, max_iters=300, seed_solver=11,
                       variant=Variant.WADMM_BASELINE)
        graph, problem = build_problem(cfg)
        tr = run(problem, graph, cfg).transcript
        walk = [1]
        for u in np.random.default_rng(cfg.seed_solver).random(len(tr.senders)):
            walk.append(next_agent(graph, walk[-1], u))
        assert tr.senders.tolist() == walk[:-1]
        assert tr.receivers.tolist() == walk[1:]

    def test_random_walk_uniform_on_triangle(self):
        g = generate_graph(3, 1.0, 0)
        draws = [next_agent(g, 1, u) for u in np.random.default_rng(123).random(10_000)]
        frac2 = draws.count(2) / len(draws)
        assert draws.count(2) + draws.count(3) == len(draws)
        assert abs(frac2 - 0.5) <= 0.05

    def test_invalid_prev_rejected(self):
        g = generate_graph(4, 1.0, 0)
        with pytest.raises(ValueError):
            next_agent(g, 9, 0.5)


def test_edgelist_roundtrip():
    g = generate_graph(9, 0.4, seed=31)
    buf = io.StringIO()
    write_edgelist(g, buf)
    first_line, *edge_lines = buf.getvalue().splitlines()
    assert first_line == "9"
    edges = {tuple(int(tok) for tok in ln.split()) for ln in edge_lines}
    assert len(edges) == len(edge_lines)
    assert edges == g.edges
