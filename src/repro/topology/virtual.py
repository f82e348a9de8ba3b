"""Virtual channels: several lanes multiplexed onto each physical channel.

Adding a virtual channel to a physical channel "involves adding buffer
space and control logic to the two routers at the ends ... It also reduces
the bandwidths of the virtual channels already sharing the physical
channel" (Section 1).  :class:`VirtualChannelTopology` models exactly
that: every network channel of the base topology becomes ``lanes``
channels distinguished by their ``lane`` index, each with its own buffer
and wormhole ownership, while the simulator limits the *physical* link to
one flit per cycle across all its lanes.

This is the substrate for the algorithms the paper contrasts itself with:
deadlock-free *minimal* routing on k-ary n-cubes (impossible without
extra channels — Section 4.2) becomes possible with two lanes and the
dateline discipline, and a 2D mesh with two lanes supports fully adaptive
lane-split routing (see :mod:`repro.routing.virtual_channels`).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Sequence

from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["VirtualChannelTopology"]


class VirtualChannelTopology(Topology):
    """A topology whose every network channel carries ``lanes`` lanes.

    Args:
        base: the physical topology.
        lanes: virtual channels per physical channel; at least 1.
    """

    def __init__(self, base: Topology, lanes: int):
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        if any(ch.lane != 0 for ch in base.channels()):
            raise ValueError("the base topology already has virtual lanes")
        self.base = base
        self.lanes = lanes

    @property
    def n_dims(self) -> int:
        return self.base.n_dims

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape

    def nodes(self):
        return self.base.nodes()

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        return self._out_channels_cached(node)

    @lru_cache(maxsize=None)
    def _out_channels_cached(self, node: NodeId) -> tuple[Channel, ...]:
        return tuple(
            replace(channel, lane=lane)
            for channel in self.base.out_channels(node)
            for lane in range(self.lanes)
        )

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        return self.base._hops(src, dst)

    def lane_of(self, channel: Channel, lane: int) -> Channel:
        """The sibling of ``channel`` in the given lane."""
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} out of range 0..{self.lanes - 1}")
        return replace(channel, lane=lane)

    def __repr__(self) -> str:
        return f"VirtualChannelTopology({self.base!r}, lanes={self.lanes})"
