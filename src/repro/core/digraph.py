"""A minimal object-level digraph for the turn model's dependency graphs.

It holds the paper's Step 3/4 abstraction, the dependency graph a turn
restriction induces (:func:`repro.core.channel_graph.turn_cdg`), and the
exact dependency graph the certificate re-check rebuilds from a routing
callable (:func:`repro.core.channel_graph.routing_cdg`).  The prover
itself decides on the closure's channel ids
(:mod:`repro.verify.deadlock`), so all this class needs is an
adjacency-set graph with an iterative cycle search.  (Tests cross-check
it against networkx.)
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Optional, Set, Tuple, TypeVar

__all__ = ["Digraph"]

V = TypeVar("V", bound=Hashable)


class Digraph(Generic[V]):
    """A directed graph over hashable vertices."""

    def __init__(self) -> None:
        self._succ: Dict[V, Set[V]] = {}

    def add_vertex(self, v: V) -> None:
        """Add ``v`` if not already present."""
        self._succ.setdefault(v, set())

    def add_edge(self, u: V, v: V) -> None:
        """Add the edge ``u -> v``, adding the endpoints as needed."""
        self.add_vertex(u)
        self.add_vertex(v)
        self._succ[u].add(v)

    def vertices(self) -> List[V]:
        return list(self._succ)

    def successors(self, v: V) -> Set[V]:
        return set(self._succ.get(v, ()))

    @property
    def num_vertices(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def has_edge(self, u: V, v: V) -> bool:
        return v in self._succ.get(u, ())

    def edges(self) -> Iterator[Tuple[V, V]]:
        for u, succ in self._succ.items():
            for v in succ:
                yield u, v

    def find_cycle(self) -> Optional[List[V]]:
        """Find a directed cycle, or return ``None`` if the graph is acyclic.

        Returns:
            The vertices of one cycle in order (first vertex not repeated
            at the end), or ``None``.  Uses an iterative three-color DFS,
            so it is safe on graphs far deeper than the Python recursion
            limit.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._succ}
        parent: Dict[V, V] = {}
        for root in self._succ:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[V, Iterator[V]]] = [
                (root, iter(self._succ[root]))
            ]
            color[root] = GRAY
            while stack:
                vertex, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = vertex
                        stack.append((child, iter(self._succ[child])))
                        advanced = True
                        break
                    if color[child] == GRAY:
                        cycle = [vertex]
                        node = vertex
                        while node != child:
                            node = parent[node]
                            cycle.append(node)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[vertex] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """Whether the graph contains no directed cycle."""
        return self.find_cycle() is None
