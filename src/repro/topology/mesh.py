"""n-dimensional mesh topology.

An n-dimensional mesh has ``k_0 x k_1 x ... x k_{n-1}`` nodes; two nodes are
neighbors when their coordinates agree in every dimension but one, where
they differ by exactly 1 (paper, Section 1).  Each pair of neighbors is
joined by a pair of unidirectional channels.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["Mesh", "Mesh2D"]


class Mesh(Topology):
    """An n-dimensional mesh with per-dimension radixes ``shape``."""

    def __init__(self, shape: Sequence[int]):
        shape = tuple(int(k) for k in shape)
        if not shape:
            raise ValueError("a mesh needs at least one dimension")
        if any(k < 2 for k in shape):
            raise ValueError(f"every dimension needs k >= 2, got shape {shape}")
        self._shape = shape

    @property
    def n_dims(self) -> int:
        return len(self._shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def nodes(self) -> Iterable[NodeId]:
        return itertools.product(*(range(k) for k in self._shape))

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        return self._out_channels_cached(node)

    @lru_cache(maxsize=None)
    def _out_channels_cached(self, node: NodeId) -> tuple[Channel, ...]:
        # Validated on the miss only: a raise is never cached, so an
        # invalid node still fails on every call.
        self.validate_node(node)
        channels = []
        for dim, k in enumerate(self._shape):
            for sign in (-1, 1):
                coord = node[dim] + sign
                if 0 <= coord < k:
                    dst = node[:dim] + (coord,) + node[dim + 1 :]
                    channels.append(Channel(node, dst, Direction(dim, sign)))
        return tuple(channels)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        return sum(abs(d - s) for s, d in zip(src, dst))


class Mesh2D(Mesh):
    """A 2D mesh of ``m`` columns (x, dimension 0) by ``n`` rows (y).

    Convenience subclass matching the paper's 2D terminology: dimension 0
    is x (west/east) and dimension 1 is y (south/north).
    """

    def __init__(self, m: int, n: int):
        super().__init__((m, n))

    @property
    def m(self) -> int:
        """Number of nodes along x (dimension 0)."""
        return self.shape[0]

    @property
    def n(self) -> int:
        """Number of nodes along y (dimension 1)."""
        return self.shape[1]
