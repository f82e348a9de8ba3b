"""The object-level deadlock deciders, kept as test oracles.

The prover in :mod:`repro.verify.deadlock` and Step 4's
:func:`~repro.core.channel_graph.restriction_is_deadlock_free` decide on
channel-id bitmasks with one Kahn pass.  These functions decide the same
questions a second way, on a :class:`~repro.core.digraph.Digraph` of
channel objects: the turn-induced graph of a restriction
(:func:`turn_cdg`) and the exact graph
:func:`~repro.core.channel_graph.routing_cdg` builds straight from the
routing callable, searched by a three-colour depth-first search
(:func:`find_cycle`), a shortest cycle by one breadth-first search per
vertex, a topological order by Kahn's algorithm, and a longest path over
that order.  Tests hold the deciders' verdicts, witness lengths and hop
bounds to these.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.channel_graph import CycleWitness, RouteFn, routing_cdg
from repro.core.digraph import Digraph, V
from repro.core.restrictions import TurnRestriction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId


def turn_cdg(topology: Topology, restriction: TurnRestriction) -> Digraph[Channel]:
    """Dependency graph induced by a turn restriction alone.

    An edge joins channel ``a`` to channel ``b`` whenever ``b`` leaves the
    node ``a`` enters and the restriction permits the transition from
    ``a``'s direction to ``b``'s direction (straight continuations and
    permitted reversals included).
    """
    graph: Digraph[Channel] = Digraph()
    for channel in topology.channels():
        graph.add_vertex(channel)
    for in_channel in topology.channels():
        for out_channel in topology.out_channels(in_channel.dst):
            if restriction.permits(in_channel.direction, out_channel.direction):
                graph.add_edge(in_channel, out_channel)
    return graph


def find_cycle(graph: Digraph[V]) -> Optional[List[V]]:
    """A directed cycle (first vertex not repeated at the end), or
    ``None`` if the graph is acyclic.  An iterative three-colour DFS, so
    it is safe on graphs far deeper than the recursion limit."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph.vertices()}
    parent: Dict[V, V] = {}
    for root in graph.vertices():
        if color[root] != WHITE:
            continue
        stack: List[Tuple[V, Iterator[V]]] = [(root, iter(graph.successors(root)))]
        color[root] = GRAY
        while stack:
            vertex, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == WHITE:
                    color[child] = GRAY
                    parent[child] = vertex
                    stack.append((child, iter(graph.successors(child))))
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


def is_acyclic(graph: Digraph[V]) -> bool:
    """Whether the graph contains no directed cycle."""
    return find_cycle(graph) is None


def turn_cdg_is_acyclic(topology: Topology, restriction: TurnRestriction) -> bool:
    """Step 4's verdict decided on the object-level turn-induced graph."""
    return is_acyclic(turn_cdg(topology, restriction))


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
    if len(order) != len(in_degree):
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
    if is_acyclic(graph):
        return None
    cycle = shortest_cycle(graph)
    assert cycle is not None  # is_acyclic said otherwise
    return CycleWitness.from_channels(cycle, edge_dests)


def is_deadlock_free(topology: Topology, route_fn: RouteFn) -> bool:
    """Dally-Seitz test: whether the routing relation cannot deadlock."""
    return find_dependency_cycle(topology, route_fn) is None
