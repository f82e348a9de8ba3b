"""Hexagonal mesh topology (the paper's Section 7 future work).

"Another obvious extension of our work is to apply the turn model to
other topologies, such as hexagonal ... In such topologies, the turns are
not necessarily 90-degrees and the abstract cycles are not necessarily
formed by four turns."

A hexagonal mesh is modeled on the axial lattice: nodes carry coordinates
``(a, b)`` and interior nodes have six neighbors — along the ``a`` axis
(dimension 0), the ``b`` axis (dimension 1), and the diagonal ``w`` axis
(dimension 2), where one ``+w`` hop moves ``(+1, +1)``.  The six
directions make 60- and 120-degree turns with each other, yet the
negative-first argument survives unchanged: every ``+`` hop increases the
coordinate sum and every ``-`` hop decreases it, so the Theorem 5 channel
numbering still certifies the hexagonal negative-first algorithm in
:mod:`repro.routing.hex_routing`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["HexMesh"]

#: The diagonal axis: one +w hop adds (+1, +1) to the coordinates.
W_AXIS = 2


class HexMesh(Topology):
    """An ``m x n`` hexagonal mesh on axial coordinates.

    Channels exist along ``±a`` and ``±b`` wherever the neighbor is in
    range, and along ``±w`` (the ``(+1, +1)`` diagonal) wherever both
    coordinates stay in range.  Note ``n_dims`` is 2 — nodes carry two
    coordinates — while directions span three axes; the hex algorithms in
    :mod:`repro.routing.hex_routing` are written directly against this
    topology rather than through the mesh turn tables.
    """

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError(f"a hex mesh needs m, n >= 2, got {m}x{n}")
        self._shape = (m, n)

    @property
    def n_dims(self) -> int:
        return 2

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def axis_count(self) -> int:
        """Number of movement axes (a, b, and the diagonal w)."""
        return 3

    def nodes(self) -> Iterable[NodeId]:
        return itertools.product(range(self._shape[0]), range(self._shape[1]))

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        self.validate_node(node)
        return self._out_channels_cached(node)

    @lru_cache(maxsize=None)
    def _out_channels_cached(self, node: NodeId) -> tuple[Channel, ...]:
        a, b = node
        m, n = self._shape
        channels = []
        if a > 0:
            channels.append(Channel(node, (a - 1, b), Direction(0, -1)))
        if a + 1 < m:
            channels.append(Channel(node, (a + 1, b), Direction(0, 1)))
        if b > 0:
            channels.append(Channel(node, (a, b - 1), Direction(1, -1)))
        if b + 1 < n:
            channels.append(Channel(node, (a, b + 1), Direction(1, 1)))
        if a > 0 and b > 0:
            channels.append(Channel(node, (a - 1, b - 1), Direction(W_AXIS, -1)))
        if a + 1 < m and b + 1 < n:
            channels.append(Channel(node, (a + 1, b + 1), Direction(W_AXIS, 1)))
        return tuple(channels)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        """Hex distance: diagonal hops cover one step of both axes.

        For displacement ``(dx, dy)``: when the components share a sign
        the diagonal does double duty and the distance is
        ``max(|dx|, |dy|)``; otherwise every hop helps only one axis and
        the distance is ``|dx| + |dy|``.
        """
        dx = dst[0] - src[0]
        dy = dst[1] - src[1]
        if dx * dy > 0:
            return max(abs(dx), abs(dy))
        return abs(dx) + abs(dy)

    def minimal_directions(self, src: NodeId, dst: NodeId) -> tuple[Direction, ...]:
        """Directions whose hop reduces the hex distance to ``dst``."""
        if src == dst:
            return ()
        here = self.distance(src, dst)
        productive = []
        for channel in self.out_channels(src):
            if self._hops(channel.dst, dst) == here - 1:
                productive.append(channel.direction)
        return tuple(productive)
