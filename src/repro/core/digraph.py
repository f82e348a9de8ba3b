"""Minimal directed-graph utilities used by the deadlock analysis.

The channel dependency graph of a 16x16 mesh has about a thousand vertices
and a few thousand edges, so a simple adjacency-set digraph with an
iterative cycle search is all the core needs.  (Tests cross-check these
routines against networkx.)
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

    def shortest_cycle(self) -> Optional[List[V]]:
        """A shortest directed cycle, or ``None`` if the graph is acyclic.

        Runs one BFS per vertex, so it costs ``O(V (V + E))``.  Callers
        decide acyclicity with :meth:`find_cycle` first and run this only
        on a graph known to be cyclic, to extract the witness
        (:func:`repro.verify.deadlock.closure_dependencies` does so once
        per verified target).  Minimal witnesses matter because they are
        the readable ones: the Figure 1 deadlock renders as the
        four-channel square of the paper, not an arbitrary DFS artifact.

        Returns:
            The vertices of a minimum-length cycle in order (first vertex
            not repeated at the end), or ``None``.
        """
        best: Optional[List[V]] = None
        for root in self._succ:
            if best is not None and len(best) <= 1:
                break
            # BFS from each successor of root back to root.
            parent: Dict[V, V] = {}
            depth = {root: 0}
            queue: List[V] = [root]
            found: Optional[V] = None
            while queue and found is None:
                next_queue: List[V] = []
                for vertex in queue:
                    if best is not None and depth[vertex] + 1 >= len(best):
                        continue
                    for child in self._succ[vertex]:
                        if child == root:
                            found = vertex
                            break
                        if child not in depth:
                            depth[child] = depth[vertex] + 1
                            parent[child] = vertex
                            next_queue.append(child)
                    if found is not None:
                        break
                queue = next_queue
            if found is None:
                continue
            cycle = [found]
            while cycle[-1] != root:
                cycle.append(parent.get(cycle[-1], root))
            cycle.reverse()
            if best is None or len(cycle) < len(best):
                best = cycle
        return best

    def longest_path(self) -> List[V]:
        """A longest (most vertices) directed path of an acyclic graph.

        Used by the livelock certifier: in an acyclic channel dependency
        graph, every permitted walk follows a path of the graph, so the
        longest path bounds the longest walk any packet can take.

        Raises:
            ValueError: if the graph has a cycle (no finite bound exists).
        """
        order = self.topological_order()
        length: Dict[V, int] = {v: 0 for v in self._succ}
        parent: Dict[V, Optional[V]] = {v: None for v in self._succ}
        for u in order:
            for v in self._succ[u]:
                if length[u] + 1 > length[v]:
                    length[v] = length[u] + 1
                    parent[v] = u
        if not length:
            return []
        tail = max(length, key=lambda v: length[v])
        path = [tail]
        while True:
            prev = parent[path[-1]]
            if prev is None:
                break
            path.append(prev)
        path.reverse()
        return path

    def topological_order(self) -> List[V]:
        """A topological order of the vertices.

        Raises:
            ValueError: if the graph has a cycle.
        """
        in_degree = {v: 0 for v in self._succ}
        for _, v in self.edges():
            in_degree[v] += 1
        ready = [v for v, deg in in_degree.items() if deg == 0]
        order: List[V] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self._succ[v]:
                in_degree[w] -= 1
                if in_degree[w] == 0:
                    ready.append(w)
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle; no topological order exists")
        return order
