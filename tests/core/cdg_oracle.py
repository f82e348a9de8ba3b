"""The object-level deadlock decider, kept as a test oracle.

The prover in :mod:`repro.verify.deadlock` decides on the compiled
table's channel ids.  These functions decide the same question a second
way, on the :class:`~repro.core.digraph.Digraph` that
:func:`~repro.core.channel_graph.routing_cdg` builds straight from the
routing callable: a shortest cycle by one breadth-first search per
vertex, a topological order by Kahn's algorithm, and a longest path over
that order.  Tests hold the prover's verdicts, witness lengths and hop
bounds to these.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.channel_graph import CycleWitness, RouteFn, routing_cdg
from repro.core.digraph import Digraph, V
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId


def shortest_cycle(graph: Digraph[V]) -> Optional[List[V]]:
    """A shortest directed cycle (first vertex not repeated at the end),
    or ``None`` if the graph is acyclic.  One BFS per vertex."""
    best: Optional[List[V]] = None
    for root in graph.vertices():
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
                for child in graph.successors(vertex):
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


def topological_order(graph: Digraph[V]) -> List[V]:
    """A topological order of the vertices.

    Raises:
        ValueError: if the graph has a cycle.
    """
    in_degree = {v: 0 for v in graph.vertices()}
    for _, v in graph.edges():
        in_degree[v] += 1
    ready = [v for v, deg in in_degree.items() if deg == 0]
    order: List[V] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in graph.successors(v):
            in_degree[w] -= 1
            if in_degree[w] == 0:
                ready.append(w)
    if len(order) != graph.num_vertices:
        raise ValueError("graph has a cycle; no topological order exists")
    return order


def longest_path(graph: Digraph[V]) -> List[V]:
    """A longest (most vertices) directed path of an acyclic graph.

    Raises:
        ValueError: if the graph has a cycle (no finite bound exists).
    """
    order = topological_order(graph)
    length: Dict[V, int] = {v: 0 for v in order}
    parent: Dict[V, Optional[V]] = {v: None for v in order}
    for u in order:
        for v in graph.successors(u):
            if length[u] + 1 > length[v]:
                length[v] = length[u] + 1
                parent[v] = u
    if not length:
        return []
    tail: Optional[V] = max(length, key=lambda v: length[v])
    path: List[V] = []
    while tail is not None:
        path.append(tail)
        tail = parent[tail]
    path.reverse()
    return path


def find_dependency_cycle(
    topology: Topology, route_fn: RouteFn
) -> Optional[CycleWitness]:
    """A shortest realizable dependency cycle of the routing relation,
    annotated with an example destination per dependency, or ``None``."""
    edge_dests: Dict[Tuple[Channel, Channel], NodeId] = {}
    graph = routing_cdg(topology, route_fn, edge_dests=edge_dests)
    if graph.is_acyclic():
        return None
    cycle = shortest_cycle(graph)
    assert cycle is not None  # is_acyclic() said otherwise
    return CycleWitness.from_channels(cycle, edge_dests)


def is_deadlock_free(topology: Topology, route_fn: RouteFn) -> bool:
    """Dally-Seitz test: whether the routing relation cannot deadlock."""
    return find_dependency_cycle(topology, route_fn) is None
