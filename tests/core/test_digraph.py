"""Tests for the digraph and the object-level oracle built on it,
cross-checked against networkx."""

import random

import networkx as nx
import pytest

from repro.core.digraph import Digraph
from tests.core.cdg_oracle import longest_path, shortest_cycle, topological_order


def _from_edges(edges):
    g = Digraph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBasics:
    def test_empty_graph_is_acyclic(self):
        assert Digraph().is_acyclic()

    def test_single_vertex(self):
        g = Digraph()
        g.add_vertex("a")
        assert g.num_vertices == 1
        assert g.num_edges == 0
        assert g.is_acyclic()

    def test_self_loop_is_a_cycle(self):
        g = _from_edges([("a", "a")])
        assert not g.is_acyclic()
        assert g.find_cycle() == ["a"]

    def test_edge_accounting(self):
        g = _from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_duplicate_edges_collapse(self):
        g = _from_edges([("a", "b"), ("a", "b")])
        assert g.num_edges == 1

    def test_successors_are_copies(self):
        g = _from_edges([("a", "b")])
        g.successors("a").add("z")
        assert not g.has_edge("a", "z")


class TestCycleDetection:
    def test_two_cycle(self):
        g = _from_edges([("a", "b"), ("b", "a")])
        cycle = g.find_cycle()
        assert sorted(cycle) == ["a", "b"]

    def test_long_path_is_acyclic(self):
        edges = [(i, i + 1) for i in range(5000)]
        # Deep graphs must not hit the recursion limit.
        assert _from_edges(edges).is_acyclic()

    def test_long_cycle_found(self):
        n = 5000
        edges = [(i, (i + 1) % n) for i in range(n)]
        cycle = _from_edges(edges).find_cycle()
        assert len(cycle) == n

    def test_cycle_is_a_real_cycle(self):
        g = _from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("a", "e")]
        )
        cycle = g.find_cycle()
        assert cycle is not None
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(u, v)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = 40
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(10, 120))
        ]
        edges = [(u, v) for u, v in edges if u != v]
        ours = _from_edges(edges)
        theirs = nx.DiGraph(edges)
        assert ours.is_acyclic() == nx.is_directed_acyclic_graph(theirs)


class TestTopologicalOrder:
    def test_order_respects_edges(self):
        g = _from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("d", "a")])
        order = topological_order(g)
        position = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert position[u] < position[v]

    def test_cyclic_graph_raises(self):
        g = _from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError):
            topological_order(g)

    def test_includes_isolated_vertices(self):
        g = _from_edges([("a", "b")])
        g.add_vertex("z")
        assert set(topological_order(g)) == {"a", "b", "z"}


class TestOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_shortest_cycle_matches_networkx(self, seed):
        rng = random.Random(seed)
        n = 30
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(10, 60))]
        ours = shortest_cycle(_from_edges(edges))
        theirs = nx.DiGraph(edges)
        lengths = [
            nx.shortest_path_length(theirs, v, u) + 1
            for u, v in theirs.edges()
            if nx.has_path(theirs, v, u)
        ]
        if not lengths:
            assert ours is None
            return
        assert len(ours) == min(lengths)
        for u, v in zip(ours, ours[1:] + ours[:1]):
            assert theirs.has_edge(u, v)

    @pytest.mark.parametrize("seed", range(12))
    def test_longest_path_matches_networkx(self, seed):
        rng = random.Random(seed)
        n = 30
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(10, 80))]
        edges = [(min(u, v), max(u, v)) for u, v in pairs if u != v]
        path = longest_path(_from_edges(edges))
        theirs = nx.DiGraph(edges)
        assert len(path) == nx.dag_longest_path_length(theirs) + 1
        for u, v in zip(path, path[1:]):
            assert theirs.has_edge(u, v)
