"""Channel numbering schemes certifying deadlock freedom.

The deadlock-freedom proofs of Theorems 2, 3, and 5 follow Dally and
Seitz: number the channels so that the algorithm routes every packet along
channels with strictly decreasing (or increasing) numbers.  This module
constructs such numberings and provides :func:`numbering_violations`, which
checks the monotonicity property exhaustively against a routing relation —
turning the paper's proofs into executable certificates.

Numbers are built from two-digit ``(a, b)`` pairs compared lexicographically
and flattened to integers, mirroring the base-r two-digit numbers of the
Theorem 2 proof (Figures 6 and 7).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.channel_graph import RouteFn, routing_cdg
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.mesh import Mesh2D

__all__ = [
    "west_first_numbering",
    "north_last_numbering",
    "negative_first_numbering",
    "potential_numbering",
    "numbering_violations",
]

#: A channel numbering: channel -> integer.
Numbering = Mapping[Channel, int]


def west_first_numbering(mesh: Mesh2D) -> Dict[Channel, int]:
    """Channel numbers under which west-first routes strictly *decrease*.

    Westward channels get the highest numbers, decreasing the farther west
    they are (a packet travels west first, along decreasing numbers); the
    second phase's eastward, northward, and southward channels get still
    lower numbers, decreasing the farther east.  This realizes the scheme
    of the Theorem 2 proof.
    """
    m, n = mesh.m, mesh.n
    radix = n + 1
    numbers: Dict[Channel, int] = {}
    for channel in mesh.channels():
        x, y = channel.src
        direction = channel.direction
        if direction.dim == 0 and direction.is_negative:  # west
            a, b = 3 * m + 4 + x, n
        elif direction.dim == 0:  # east
            a, b = 3 * m - 3 * x, n
        elif direction.is_positive:  # north
            a, b = 3 * m - 3 * x + 1, n - 1 - y
        else:  # south
            a, b = 3 * m - 3 * x + 1, y
        numbers[channel] = a * radix + b
    return numbers


def north_last_numbering(mesh: Mesh2D) -> Dict[Channel, int]:
    """Channel numbers under which north-last routes strictly *increase*.

    Theorem 3's proof rotates the west-first numbering and reverses the
    channel directions; this is the resulting scheme written out directly.
    Northward channels get the highest numbers, increasing the farther
    north; the adaptive first phase's rows are numbered in increasing
    blocks from north to south, with westward channels below eastward ones
    within a row so the west-to-east reversal stays monotone.
    """
    m, n = mesh.m, mesh.n
    radix = m + 1
    numbers: Dict[Channel, int] = {}
    for channel in mesh.channels():
        x, y = channel.src
        direction = channel.direction
        if direction.dim == 1 and direction.is_positive:  # north
            a, b = 4 * n + y, 0
        elif direction.dim == 1:  # south
            a, b = 4 * (n - 1 - y) + 2, 0
        elif direction.is_negative:  # west
            a, b = 4 * (n - 1 - y), m - 1 - x
        else:  # east
            a, b = 4 * (n - 1 - y) + 1, x
        numbers[channel] = a * radix + b
    return numbers


def negative_first_numbering(topology: Topology) -> Dict[Channel, int]:
    """The Theorem 5 numbering, under which negative-first *increases*.

    Let ``K`` be the sum of the dimension radixes and ``X`` the coordinate
    sum of the node a channel leaves.  Positive-direction channels are
    numbered ``K - n + X`` and negative-direction channels ``K - n - X``.
    Distinct channels may share a number; the Dally-Seitz argument only
    needs every routing step to strictly increase, which it does: a
    negative hop enters on ``K - n - X - 1`` and leaves on ``K - n - X``
    or ``K - n + X``, and a positive hop enters on ``K - n + X - 1`` and
    may only continue positively on ``K - n + X``.

    Works verbatim for hypercubes, where p-cube routing is the special
    case of negative-first (Section 5).
    """
    big_k = sum(topology.shape)
    n = topology.n_dims
    numbers: Dict[Channel, int] = {}
    for channel in topology.channels():
        x_sum = sum(channel.src)
        if channel.direction.is_positive:
            numbers[channel] = big_k - n + x_sum
        else:
            numbers[channel] = big_k - n - x_sum
    return numbers


def potential_numbering(topology: Topology, potential) -> Dict[Channel, int]:
    """Generalize Theorem 5's numbering to an arbitrary node potential.

    Given a potential ``phi`` that strictly increases across every
    positive-signed channel and strictly decreases across every
    negative-signed one, number descending channels ``B - phi(src)`` and
    ascending channels ``B + phi(src)``.  Any negative-first-style
    algorithm over that potential (all descents before any ascent) routes
    along strictly increasing numbers — Theorem 5 is the special case
    ``phi = coordinate sum``, and the hexagonal and octagonal
    negative-first algorithms of Section 7's future-work topologies are
    certified by their own potentials.

    Args:
        topology: the network.
        potential: callable mapping a node to an integer potential; every
            channel must change it (raises otherwise).

    Returns:
        The channel numbering.
    """
    values = {node: potential(node) for node in topology.nodes()}
    # Shift so the potential is non-negative: the descend-to-ascend
    # transition needs B - phi(u) < B + phi(v) for every phi(v) >= 0.
    shift = min(values.values())
    values = {node: value - shift for node, value in values.items()}
    base = max(values.values()) + 1
    numbers: Dict[Channel, int] = {}
    for channel in topology.channels():
        before = values[channel.src]
        after = values[channel.dst]
        if after == before:
            raise ValueError(
                f"potential does not separate channel {channel}: {before}"
            )
        if after < before:
            numbers[channel] = base - before
        else:
            numbers[channel] = base + before
    return numbers


def numbering_violations(
    topology: Topology,
    route_fn: RouteFn,
    numbering: Numbering,
    order: str = "decreasing",
) -> List[Tuple[Channel, Channel]]:
    """The realizable routing steps that break a numbering's monotonicity.

    Every edge of the exact channel dependency graph that fails to move
    strictly in the given order — empty exactly when the numbering
    certifies the relation.  The verifier uses this both to
    validate closed-form numberings before embedding them in certificates
    and to report *which* dependencies a broken numbering misses.

    Args:
        topology: the network.
        route_fn: the routing relation.
        numbering: channel numbers.
        order: ``"decreasing"`` or ``"increasing"``.

    Returns:
        The violating ``(holding channel, requested channel)`` pairs.
    """
    if order not in ("decreasing", "increasing"):
        raise ValueError(f"order must be 'decreasing' or 'increasing': {order!r}")
    graph = routing_cdg(topology, route_fn)
    violations: List[Tuple[Channel, Channel]] = []
    for in_channel, out_channel in graph.edges():
        before = numbering[in_channel]
        after = numbering[out_channel]
        if order == "decreasing" and not after < before:
            violations.append((in_channel, out_channel))
        if order == "increasing" and not after > before:
            violations.append((in_channel, out_channel))
    return violations
