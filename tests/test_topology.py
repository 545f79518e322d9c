import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_connected
from ringadmm.topology import (
    ActivationSchedule,
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
        assert g.cycle_successor(3) == 1

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

    def test_ring_edge_missing_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))  # no (1, 4)


class TestSchedules:
    def test_cyclic_wraparound(self):
        g = generate_graph(5, 1.0, 0)
        sched = ActivationSchedule("cyclic")
        assert next_agent(sched, g, k=4, prev=5) == 1
        assert next_agent(sched, g, k=1, prev=2) == 3

    def test_cyclic_visits_everyone_once_per_cycle(self):
        g = generate_graph(7, 1.0, 0)
        sched = ActivationSchedule("cyclic")
        agent = 1
        for start in range(0, 21, 7):
            seen = set()
            for k in range(start, start + 7):
                seen.add(agent)
                agent = next_agent(sched, g, k, agent)
            assert seen == set(range(1, 8))

    def test_random_walk_stays_on_edges(self):
        g = generate_graph(12, 0.3, seed=5)
        sched = ActivationSchedule("random_walk", seed=9)
        agent = 1
        for k in range(200):
            nxt = next_agent(sched, g, k, agent)
            assert nxt in g.neighbors[agent]
            agent = nxt

    def test_random_walk_deterministic_per_seed_and_step(self):
        g = generate_graph(10, 0.4, seed=2)
        sched = ActivationSchedule("random_walk", seed=11)
        a = [next_agent(sched, g, k, 3) for k in range(50)]
        b = [next_agent(sched, g, k, 3) for k in range(50)]
        assert a == b

    def test_random_walk_uniform_on_triangle(self):
        g = generate_graph(3, 1.0, 0)
        sched = ActivationSchedule("random_walk", seed=123)
        draws = [next_agent(sched, g, k, 1) for k in range(10_000)]
        frac2 = draws.count(2) / len(draws)
        assert draws.count(2) + draws.count(3) == len(draws)
        assert abs(frac2 - 0.5) <= 0.05

    def test_invalid_prev_rejected(self):
        g = generate_graph(4, 1.0, 0)
        with pytest.raises(ValueError):
            next_agent(ActivationSchedule("cyclic"), g, 0, prev=9)


def test_edgelist_roundtrip():
    g = generate_graph(9, 0.4, seed=31)
    buf = io.StringIO()
    write_edgelist(g, buf)
    first_line, *edge_lines = buf.getvalue().splitlines()
    assert first_line == "9"
    edges = {tuple(int(tok) for tok in ln.split()) for ln in edge_lines}
    assert len(edges) == len(edge_lines)
    assert edges == g.edges
