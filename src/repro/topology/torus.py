"""k-ary n-cube (torus) topology.

A k-ary n-cube is an n-dimensional mesh with modular neighbor arithmetic:
the change to ``mod k`` adds wraparound channels, giving the network
symmetry (paper, Section 1).  Following Section 4.2, each wraparound
channel is classified by the virtual direction in which it routes packets:
the wraparound channel leaving the east edge (coordinate ``k-1``) lands on
the west edge (coordinate ``0``) and is a channel *to the west* (negative
direction); its partner leaving the west edge is a channel to the east
(positive direction).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["Torus"]


class Torus(Topology):
    """A k-ary n-cube: ``n`` dimensions of radix ``k``.

    Args:
        k: radix of every dimension; must be at least 3 (use
            :class:`~repro.topology.hypercube.Hypercube` for ``k == 2``,
            where the two ring channels of a dimension collapse into a
            single neighbor pair).
        n: number of dimensions.
    """

    def __init__(self, k: int, n: int):
        if k < 3:
            raise ValueError(
                f"a torus needs k >= 3 (got k={k}); use Hypercube for k=2"
            )
        if n < 1:
            raise ValueError(f"a torus needs n >= 1 dimensions, got {n}")
        self._k = k
        self._n = n

    @property
    def k(self) -> int:
        """Radix of each dimension."""
        return self._k

    @property
    def n_dims(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._k,) * self._n

    def nodes(self) -> Iterable[NodeId]:
        return itertools.product(range(self._k), repeat=self._n)

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        self.validate_node(node)
        return self._out_channels_cached(node)

    @lru_cache(maxsize=None)
    def _out_channels_cached(self, node: NodeId) -> tuple[Channel, ...]:
        channels = []
        k = self._k
        for dim in range(self._n):
            coord = node[dim]
            for sign in (-1, 1):
                neighbor_coord = coord + sign
                if 0 <= neighbor_coord < k:
                    dst = node[:dim] + (neighbor_coord,) + node[dim + 1 :]
                    channels.append(Channel(node, dst, Direction(dim, sign)))
            # Wraparound channels, classified per Section 4.2: the channel
            # leaving the edge node lands on the opposite edge and routes
            # packets back across the mesh, so it takes the direction that
            # points from its source edge toward its destination edge.
            if coord == k - 1:
                dst = node[:dim] + (0,) + node[dim + 1 :]
                channels.append(
                    Channel(node, dst, Direction(dim, -1), wraparound=True)
                )
            if coord == 0:
                dst = node[:dim] + (k - 1,) + node[dim + 1 :]
                channels.append(
                    Channel(node, dst, Direction(dim, 1), wraparound=True)
                )
        return tuple(channels)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        k = self._k
        return sum(min(abs(d - s), k - abs(d - s)) for s, d in zip(src, dst))

    def ring_offset(self, src_coord: int, dst_coord: int) -> int:
        """Signed shortest displacement from one ring coordinate to another.

        Positive means the short way around is toward higher coordinates.
        When the two ways are equally long (``k`` even, half-way apart),
        the positive way is reported.
        """
        delta = (dst_coord - src_coord) % self._k
        if delta <= self._k - delta:
            return delta
        return delta - self._k
