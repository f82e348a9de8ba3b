"""Routing algorithm interface.

A routing algorithm maps (incoming channel, current node, destination) to
the set of output channels the packet may take next.  Returning several
channels is what makes an algorithm adaptive; the router's output-selection
policy picks among the ones that are free (Section 6).

Algorithms are callable, so an instance can be passed anywhere a
:data:`repro.core.channel_graph.RouteFn` is expected — the deadlock checker,
the numbering certifier, the path counter, and the simulator all consume
the same object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["RoutingAlgorithm"]


class RoutingAlgorithm(ABC):
    """Base class for wormhole routing algorithms.

    Attributes:
        topology: the network the algorithm routes on.
        name: short identifier used in reports and figure legends.
        minimal: whether the algorithm only offers shortest-path hops.
        uses_in_channel: whether :meth:`route` actually reads
            ``in_channel``.  Most minimal turn-model algorithms decide
            from ``(node, dest)`` alone; declaring that lets the route
            cache collapse all arrival channels of a router into one
            key.  Defaults to True (the conservative assumption); only
            set False when the implementation provably ignores the
            argument on every reachable state.
            :class:`~repro.routing.turn_table.TurnRestrictionRouting`
            derives it per instance from its restriction.
    """

    name: str = "unnamed"
    minimal: bool = True
    uses_in_channel: bool = True

    def __init__(self, topology: Topology):
        self.topology = topology

    @abstractmethod
    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        """Output channels the packet may take from ``node`` toward ``dest``.

        A pure function of its arguments (no randomness, mutable state or
        time dependence), so the simulator compiles each answer once
        (:class:`repro.sim.ids.CompiledRoutes`).

        Args:
            in_channel: the channel the packet's header arrived on, or
                ``None`` if the packet is being injected at its source.
            node: the node the header currently occupies
                (``in_channel.dst`` when ``in_channel`` is given).
            dest: the packet's destination; never equal to ``node`` (the
                router ejects packets that have arrived instead of routing
                them).

        Returns:
            The permitted output channels.  Productive channels (those on
            a shortest path) come first, so callers that prefer minimal
            progress can use the order; an empty result for a reachable
            routing state is a bug.
        """

    def __call__(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        return self.route(in_channel, node, dest)

    def productive_channels(self, node: NodeId, dest: NodeId) -> list[Channel]:
        """The mesh channels leaving ``node`` on a shortest path to ``dest``."""
        # At most one productive direction per dimension, so a tuple scan
        # beats building a set for the membership test.
        wanted = self.topology.minimal_directions(node, dest)
        return [
            channel
            for channel in self.topology.out_channels(node)
            if not channel.wraparound and channel.direction in wanted
        ]

    def in_direction(self, in_channel: Optional[Channel]) -> Optional[Direction]:
        """The virtual direction of travel on arrival, if any."""
        return None if in_channel is None else in_channel.direction

    def __repr__(self) -> str:
        kind = "minimal" if self.minimal else "nonminimal"
        return f"{type(self).__name__}({self.name}, {kind}, {self.topology!r})"
