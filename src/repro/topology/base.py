"""Abstract base class for direct-network topologies.

The turn-model core, the routing algorithms, and the wormhole simulator all
talk to topologies through this interface: nodes are coordinate tuples,
channels are directed ``Channel`` records, and movement is expressed in
virtual directions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Iterable, Optional, Sequence

from repro.core.directions import Direction
from repro.topology.channels import Channel, NodeId

__all__ = ["Topology"]


class Topology(ABC):
    """A direct network: a set of nodes joined by directed channels."""

    @property
    @abstractmethod
    def n_dims(self) -> int:
        """Number of dimensions of the topology."""

    @property
    @abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Radix of each dimension, ``(k_0, ..., k_{n-1})``."""

    @abstractmethod
    def nodes(self) -> Iterable[NodeId]:
        """All node coordinate tuples, in lexicographic order."""

    @abstractmethod
    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        """The channels leaving ``node``, in a deterministic order."""

    @abstractmethod
    def _hops(self, src: NodeId, dst: NodeId) -> int:
        """:meth:`distance` between two nodes known to be in this network."""

    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Length of a shortest path from ``src`` to ``dst`` in hops."""
        self.validate_node(src)
        self.validate_node(dst)
        return self._hops(src, dst)

    def distances_to(self, dst: NodeId) -> list[int]:
        """:meth:`distance` from every node, in :meth:`nodes` order, to
        ``dst``: ``dst`` is validated once, the nodes, being this
        network's own, not at all."""
        self.validate_node(dst)
        hops = self._hops
        return [hops(node, dst) for node in self.nodes()]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the network."""
        total = 1
        for k in self.shape:
            total *= k
        return total

    @cached_property
    def _channel_list(self) -> list[Channel]:
        return [ch for node in self.nodes() for ch in self.out_channels(node)]

    def channels(self) -> list[Channel]:
        """Every channel in the network, grouped by source node."""
        return list(self._channel_list)

    @property
    def num_channels(self) -> int:
        """Total number of unidirectional network channels."""
        return len(self._channel_list)

    def in_channels(self, node: NodeId) -> list[Channel]:
        """The channels entering ``node``."""
        return [ch for ch in self._channel_list if ch.dst == node]

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` is a valid coordinate tuple of this network."""
        if len(node) != self.n_dims:
            return False
        return all(0 <= x < k for x, k in zip(node, self.shape))

    def validate_node(self, node: NodeId) -> None:
        """Raise ``ValueError`` if ``node`` is not in this network."""
        if not self.contains(node):
            raise ValueError(f"node {node} is not in a {self.shape} network")

    def channel_in_direction(
        self, node: NodeId, direction: Direction, wraparound: Optional[bool] = None
    ) -> Optional[Channel]:
        """The channel leaving ``node`` in ``direction``, if there is one.

        Args:
            node: the source node.
            direction: the virtual direction of the wanted channel.
            wraparound: when given, restrict the search to wraparound
                channels (``True``) or mesh channels (``False``).  A torus
                edge node can have both a mesh channel and a wraparound
                channel in the same virtual direction (Section 4.2), so
                callers that care must disambiguate.

        Returns:
            The matching channel, or ``None`` if the node has none.
        """
        for channel in self.out_channels(node):
            if channel.direction != direction:
                continue
            if wraparound is not None and channel.wraparound != wraparound:
                continue
            return channel
        return None

    def neighbor(self, node: NodeId, direction: Direction) -> Optional[NodeId]:
        """The node reached by the (mesh) channel in ``direction``.

        Returns ``None`` at a mesh boundary with no such channel.  Where a
        node has both a mesh and a wraparound channel in the direction,
        the mesh channel's endpoint is returned.
        """
        channel = self.channel_in_direction(node, direction, wraparound=False)
        if channel is None:
            channel = self.channel_in_direction(node, direction)
        return None if channel is None else channel.dst

    def offset(self, src: NodeId, dst: NodeId) -> tuple[int, ...]:
        """Per-dimension displacement ``dst - src`` (no wraparound)."""
        return tuple(d - s for s, d in zip(src, dst))

    @cached_property
    def _direction_pairs(self) -> tuple[tuple[Direction, Direction], ...]:
        """Interned ``(negative, positive)`` directions per dimension."""
        return tuple(
            (Direction(dim, -1), Direction(dim, 1)) for dim in range(self.n_dims)
        )

    def minimal_directions(self, src: NodeId, dst: NodeId) -> tuple[Direction, ...]:
        """Directions that reduce the (mesh) distance from ``src`` to ``dst``.

        These are the *productive* directions of minimal routing: one per
        dimension in which the two nodes differ, pointing toward the
        destination coordinate.  Subclasses with wraparound channels may
        override to account for shorter wrapped paths.
        """
        pairs = self._direction_pairs
        productive = []
        for dim, (s, d) in enumerate(zip(src, dst)):
            if d > s:
                productive.append(pairs[dim][1])
            elif d < s:
                productive.append(pairs[dim][0])
        return tuple(productive)

    def __repr__(self) -> str:
        shape = "x".join(str(k) for k in self.shape)
        return f"{type(self).__name__}({shape})"
