"""Octagonal mesh topology (the paper's Section 7 future work).

An octagonal mesh adds both diagonals to the 2D mesh: interior nodes have
eight neighbors — the four compass directions plus the ``w`` diagonal
(dimension 2, ``+w`` moves ``(+1, +1)``) and the ``v`` anti-diagonal
(dimension 3, ``+v`` moves ``(+1, -1)``).  Distances follow the king-move
(Chebyshev) metric.

The coordinate-sum potential behind the negative-first proof no longer
separates the directions (``+v`` leaves the sum unchanged), but the
lexicographic potential ``phi = n*a + b`` does: every ``+`` direction
under this module's sign convention strictly increases ``phi`` and every
``-`` direction strictly decreases it, so the Theorem 5 argument — and
the octagonal negative-first algorithm built on it in
:mod:`repro.routing.oct_routing` — carries over.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["OctMesh", "V_AXIS"]

#: The same-sign diagonal axis: +w moves (+1, +1).
W_AXIS = 2
#: The anti-diagonal axis: +v moves (+1, -1) (sign follows the a axis).
V_AXIS = 3


class OctMesh(Topology):
    """An ``m x n`` octagonal (king-move) mesh."""

    def __init__(self, m: int, n: int):
        if m < 2 or n < 2:
            raise ValueError(f"an octagonal mesh needs m, n >= 2, got {m}x{n}")
        self._shape = (m, n)

    @property
    def n_dims(self) -> int:
        return 2

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def axis_count(self) -> int:
        """Movement axes: a, b, the diagonal w, and the anti-diagonal v."""
        return 4

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
        if a + 1 < m and b > 0:
            channels.append(Channel(node, (a + 1, b - 1), Direction(V_AXIS, 1)))
        if a > 0 and b + 1 < n:
            channels.append(Channel(node, (a - 1, b + 1), Direction(V_AXIS, -1)))
        return tuple(channels)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        """King-move (Chebyshev) distance: ``max(|dx|, |dy|)``."""
        return max(abs(dst[0] - src[0]), abs(dst[1] - src[1]))

    def minimal_directions(self, src: NodeId, dst: NodeId) -> tuple[Direction, ...]:
        """Directions whose hop reduces the Chebyshev distance."""
        if src == dst:
            return ()
        here = self.distance(src, dst)
        return tuple(
            channel.direction
            for channel in self.out_channels(src)
            if self._hops(channel.dst, dst) == here - 1
        )

    def potential(self, node: NodeId) -> int:
        """The lexicographic potential ``phi = n*a + b``.

        Every positive-signed direction strictly increases it, every
        negative-signed direction strictly decreases it — the property
        the octagonal negative-first deadlock proof rests on.
        """
        return self._shape[1] * node[0] + node[1]
