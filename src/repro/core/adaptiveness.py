"""Degree-of-adaptiveness math (Sections 3.4, 4.1, and 5).

``S_algorithm`` is the number of shortest paths an algorithm allows from a
source to a destination.  The paper gives closed forms for the fully
adaptive algorithm and each partially adaptive one; this module implements
those closed forms alongside :func:`shortest_path_counts` (every source to
one destination) and :func:`count_shortest_paths` (one pair), which count
the paths by exhaustive enumeration through an actual routing relation, so
the two can be checked against each other.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.core.channel_graph import RouteFn
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = [
    "multinomial",
    "s_fully_adaptive",
    "s_west_first",
    "s_north_last",
    "s_negative_first",
    "s_abonf",
    "s_abopl",
    "s_pcube",
    "s_ecube",
    "pcube_adaptiveness_ratio",
    "count_shortest_paths",
    "shortest_path_counts",
    "average_adaptiveness_ratio",
]


def multinomial(counts: Sequence[int]) -> int:
    """The multinomial coefficient ``(sum counts)! / prod(counts_i!)``."""
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be non-negative, got {counts}")
    result = factorial(sum(counts))
    for c in counts:
        result //= factorial(c)
    return result


def s_fully_adaptive(src: NodeId, dst: NodeId) -> int:
    """``S_f``: shortest paths available to a fully adaptive algorithm.

    ``(sum |delta_i|)! / prod |delta_i|!`` — for 2D meshes this is the
    paper's ``(dx + dy)! / (dx! dy!)``.
    """
    return multinomial([abs(d - s) for s, d in zip(src, dst)])


def s_west_first(src: NodeId, dst: NodeId) -> int:
    """``S_west-first`` (Section 3.4).

    Fully adaptive when the destination is not to the west
    (``d_x >= s_x``); otherwise a single path (west first, then the rest
    in fixed order... the algorithm permits exactly one shortest path).
    """
    (s_x, s_y), (d_x, d_y) = src, dst
    if d_x >= s_x:
        return s_fully_adaptive(src, dst)
    return 1


def s_north_last(src: NodeId, dst: NodeId) -> int:
    """``S_north-last`` (Section 3.4).

    Fully adaptive when the destination is not to the north
    (``d_y <= s_y``); otherwise a single shortest path.
    """
    (s_x, s_y), (d_x, d_y) = src, dst
    if d_y <= s_y:
        return s_fully_adaptive(src, dst)
    return 1


def s_negative_first(src: NodeId, dst: NodeId) -> int:
    """``S_negative-first`` for meshes of any dimension (Sections 3.4, 4.1).

    Fully adaptive when the displacement is entirely non-positive or
    entirely non-negative; for mixed displacements the negative moves must
    all precede the positive moves, each phase being adaptive internally,
    giving the product of the two phases' multinomials (1 in 2D, where
    each phase moves in a single dimension).
    """
    negatives = [s - d for s, d in zip(src, dst) if d < s]
    positives = [d - s for s, d in zip(src, dst) if d > s]
    return multinomial(negatives) * multinomial(positives)


def s_abonf(src: NodeId, dst: NodeId) -> int:
    """``S`` for all-but-one-negative-first on an n-dimensional mesh.

    Phase one moves adaptively in the negative directions of dimensions
    ``0 .. n-2``; phase two moves adaptively in everything else (the
    positive directions and negative dimension ``n-1``).
    """
    n = len(src)
    phase_one = [s - d for dim, (s, d) in enumerate(zip(src, dst)) if d < s and dim < n - 1]
    phase_two = [abs(d - s) for dim, (s, d) in enumerate(zip(src, dst)) if d > s or (d < s and dim == n - 1)]
    return multinomial(phase_one) * multinomial(phase_two)


def s_abopl(src: NodeId, dst: NodeId) -> int:
    """``S`` for all-but-one-positive-last on an n-dimensional mesh.

    Phase one moves adaptively in the negative directions and positive
    dimension 0; phase two moves adaptively in the positive directions of
    dimensions ``1 .. n-1``.
    """
    phase_one = [abs(d - s) for dim, (s, d) in enumerate(zip(src, dst)) if d < s or (d > s and dim == 0)]
    phase_two = [d - s for dim, (s, d) in enumerate(zip(src, dst)) if d > s and dim >= 1]
    return multinomial(phase_one) * multinomial(phase_two)


def s_pcube(src: NodeId, dst: NodeId) -> int:
    """``S_p-cube = h_1! h_0!`` (Section 5).

    ``h_1`` counts dimensions where the source bit is 1 and the
    destination bit 0 (phase-one hops) and ``h_0`` the reverse
    (phase-two hops).
    """
    h_1 = sum(1 for s, d in zip(src, dst) if s == 1 and d == 0)
    h_0 = sum(1 for s, d in zip(src, dst) if s == 0 and d == 1)
    return factorial(h_1) * factorial(h_0)


def s_ecube(src: NodeId, dst: NodeId) -> int:
    """``S`` for dimension-order routing: always exactly one path."""
    return 1


def pcube_adaptiveness_ratio(src: NodeId, dst: NodeId) -> float:
    """``S_p-cube / S_f = 1 / C(h, h_1)`` (Section 5)."""
    h_1 = sum(1 for s, d in zip(src, dst) if s == 1 and d == 0)
    h = sum(1 for s, d in zip(src, dst) if s != d)
    if h == 0:
        return 1.0
    return 1.0 / comb(h, h_1)


def _path_counter(
    topology: Topology, route_fn: RouteFn, dst: NodeId
) -> Callable[[Optional[Channel], NodeId], int]:
    """The shortest-path count toward ``dst`` from a routing state
    ``(incoming channel, node)``, memoized over states and over each
    node's distance to ``dst``, so every source asking about ``dst``
    shares one walk.

    Only hops that reduce the distance to the destination are followed
    (nonminimal detours a relation may offer are excluded, matching the
    paper's ``S`` metric).  The relation must be Markovian in
    (incoming channel, node): all the algorithms in this package are.
    """

    @lru_cache(maxsize=None)
    def distance(node: NodeId) -> int:
        return topology.distance(node, dst)

    @lru_cache(maxsize=None)
    def paths_from(channel: Optional[Channel], node: NodeId) -> int:
        if node == dst:
            return 1
        nearer = distance(node) - 1
        total = 0
        for out in route_fn(channel, node, dst):
            if distance(out.dst) == nearer:
                total += paths_from(out, out.dst)
        return total

    return paths_from


def count_shortest_paths(
    topology: Topology,
    route_fn: RouteFn,
    src: NodeId,
    dst: NodeId,
) -> int:
    """Count the shortest paths a routing relation permits from ``src``
    to ``dst``, by enumeration.

    A lazy single-pair walk: it visits only the states reachable from
    ``src``, which is what one pair of a large network (the 10-cube
    example) wants.  Use :func:`shortest_path_counts` for every source.
    """
    return _path_counter(topology, route_fn, dst)(None, src)


def shortest_path_counts(
    topology: Topology, route_fn: RouteFn, dst: NodeId
) -> Dict[NodeId, int]:
    """``S`` from every source to ``dst`` (1 at ``dst`` itself), by
    enumeration through the routing relation.

    One memo over ``(incoming channel, node)`` states serves every
    source: the count from a state toward a fixed destination does not
    depend on which source reached it.
    """
    paths_from = _path_counter(topology, route_fn, dst)
    return {src: paths_from(None, src) for src in topology.nodes()}


def average_adaptiveness_ratio(
    topology: Topology,
    route_fn: RouteFn,
    counts: Optional[Mapping[NodeId, Mapping[NodeId, int]]] = None,
) -> float:
    """Mean of ``S_p / S_f`` over all ordered source-destination pairs.

    Section 3.4 reports this exceeds 1/2 for the three 2D algorithms, and
    Section 4.1 that it exceeds ``1 / 2**(n-1)`` in n dimensions.

    ``counts`` is destination -> :func:`shortest_path_counts` when the
    caller already holds the tables; they are counted here otherwise.
    The sum runs source-major, so the float result does not depend on
    how the counts were produced.
    """
    nodes = list(topology.nodes())
    if counts is None:
        counts = {dst: shortest_path_counts(topology, route_fn, dst) for dst in nodes}
    total = 0.0
    pairs = 0
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            total += counts[dst][src] / s_fully_adaptive(src, dst)
            pairs += 1
    return total / pairs
