"""Tests for the digraph and the object-level oracle built on it,
cross-checked against networkx."""

import random

import networkx as nx
import pytest

from repro.core.digraph import Digraph, mask_ids, topological_numbering
from tests.core.cdg_oracle import (
    find_cycle,
    is_acyclic,
    longest_path,
    shortest_cycle,
    topological_order,
)


def _from_edges(edges):
    g = Digraph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestBasics:
    def test_empty_graph_is_acyclic(self):
        assert is_acyclic(Digraph())

    def test_single_vertex(self):
        g = Digraph()
        g.add_vertex("a")
        assert g.vertices() == ["a"]
        assert list(g.edges()) == []
        assert is_acyclic(g)

    def test_self_loop_is_a_cycle(self):
        g = _from_edges([("a", "a")])
        assert not is_acyclic(g)
        assert find_cycle(g) == ["a"]

    def test_edge_accounting(self):
        g = _from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        assert len(g.vertices()) == 3
        assert sorted(g.edges()) == [("a", "b"), ("a", "c"), ("b", "c")]
        assert g.successors("b") == {"c"}

    def test_duplicate_edges_collapse(self):
        g = _from_edges([("a", "b"), ("a", "b")])
        assert list(g.edges()) == [("a", "b")]

    def test_successors_are_copies(self):
        g = _from_edges([("a", "b")])
        g.successors("a").add("z")
        assert g.successors("a") == {"b"}


class TestCycleDetection:
    def test_two_cycle(self):
        g = _from_edges([("a", "b"), ("b", "a")])
        cycle = find_cycle(g)
        assert sorted(cycle) == ["a", "b"]

    def test_long_path_is_acyclic(self):
        edges = [(i, i + 1) for i in range(5000)]
        # Deep graphs must not hit the recursion limit.
        assert is_acyclic(_from_edges(edges))

    def test_long_cycle_found(self):
        n = 5000
        edges = [(i, (i + 1) % n) for i in range(n)]
        cycle = find_cycle(_from_edges(edges))
        assert len(cycle) == n

    def test_cycle_is_a_real_cycle(self):
        g = _from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("a", "e")]
        )
        cycle = find_cycle(g)
        assert cycle is not None
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert v in g.successors(u)

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
        assert is_acyclic(ours) == nx.is_directed_acyclic_graph(theirs)


class TestTopologicalNumbering:
    """The id-level Kahn pass both deciders in ``src`` run."""

    def test_mask_ids_ascending(self):
        assert list(mask_ids(0)) == []
        assert list(mask_ids(0b1011001)) == [0, 3, 4, 6]
        assert list(mask_ids(1 << 200)) == [200]

    def test_empty_relation(self):
        assert topological_numbering([]) == []

    def test_self_loop_has_no_numbering(self):
        assert topological_numbering([0b1]) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_on_random_relations(self, seed):
        rng = random.Random(seed)
        n = 40
        edges = [
            (u, v)
            for u, v in (
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(10, 120))
            )
            if u != v
        ]
        succ = [0] * n
        for u, v in edges:
            succ[u] |= 1 << v
        numbering = topological_numbering(succ)
        theirs = nx.DiGraph(edges)
        theirs.add_nodes_from(range(n))
        assert (numbering is not None) == nx.is_directed_acyclic_graph(theirs)
        if numbering is not None:
            assert sorted(numbering) == list(range(n))
            assert all(numbering[u] < numbering[v] for u, v in edges)


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
