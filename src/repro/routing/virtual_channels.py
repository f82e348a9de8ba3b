"""Routing algorithms that use virtual channels (extra lanes).

The paper positions the turn model against approaches that "achieve
adaptiveness and deadlock freedom at the expense of adding physical or
virtual channels" (Section 1) and notes that minimal deadlock-free routing
on k-ary n-cubes is impossible *without* extra channels (Section 4.2).
This module supplies the two classic extra-channel designs the comparison
implies:

* :class:`DatelineTorusRouting` — minimal dimension-order routing on a
  torus with two lanes per channel.  Within each ring a packet travels
  the short way around; it uses lane 0 while the wraparound (the
  "dateline") is still ahead and lane 1 after crossing it, which breaks
  the ring cycles exactly as in Dally and Seitz's torus routing chip.

* :class:`LaneSplitRouting` — each lane runs its own deadlock-free
  routing algorithm, and a packet commits to one lane at injection.
  Because packets never change lanes, the combined channel dependency
  graph is the disjoint union of the per-lane graphs, hence acyclic.
  With an xy lane and a yx lane this yields fully adaptive first-hop
  choice (every minimal quadrant path is available through one of the
  lanes) at the cost the paper declines to pay.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_routing
from repro.topology.channels import Channel, NodeId
from repro.topology.torus import Torus
from repro.topology.virtual import VirtualChannelTopology

__all__ = ["DatelineTorusRouting", "LaneSplitRouting", "o1turn_routing"]


class DatelineTorusRouting(RoutingAlgorithm):
    """Minimal dimension-order torus routing on two lanes per channel.

    Args:
        topology: a :class:`VirtualChannelTopology` over a
            :class:`~repro.topology.torus.Torus` with at least 2 lanes.
    """

    name = "dateline-dor"
    minimal = True
    uses_in_channel = False  # lane choice derives from (node, dest) alone

    def __init__(self, topology: VirtualChannelTopology):
        if not isinstance(topology, VirtualChannelTopology) or not isinstance(
            topology.base, Torus
        ):
            raise ValueError(
                "dateline routing needs a VirtualChannelTopology over a Torus"
            )
        if topology.lanes < 2:
            raise ValueError("dateline routing needs at least 2 lanes")
        super().__init__(topology)
        self._torus: Torus = topology.base

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        for dim in range(self.topology.n_dims):
            cur, want = node[dim], dest[dim]
            if cur == want:
                continue
            offset = self._torus.ring_offset(cur, want)
            sign = 1 if offset > 0 else -1
            # The physical hop: the mesh channel when it exists in the
            # travel direction, otherwise the wraparound at the ring edge.
            next_coord = (cur + sign) % self._torus.k
            lane = self._lane(cur, want, sign)
            for channel in self.topology.out_channels(node):
                if (
                    channel.direction.dim == dim
                    and channel.dst[dim] == next_coord
                    and channel.lane == lane
                    and self._travels(channel, cur, next_coord, sign)
                ):
                    return (channel,)
            raise AssertionError(
                f"no lane-{lane} channel from {node} toward {dest} in dim {dim}"
            )
        return ()

    def _travels(self, channel: Channel, cur: int, next_coord: int, sign: int) -> bool:
        """Whether this channel is the physical hop cur -> next_coord."""
        if channel.wraparound:
            # The wraparound connects the two ring edges; it is the travel
            # hop exactly when the modular step leaves the mesh range.
            return cur + sign != next_coord
        return cur + sign == next_coord

    def _lane(self, cur: int, want: int, sign: int) -> int:
        """Lane 0 while the dateline is ahead, lane 1 after crossing it.

        Travelling in the positive direction, a packet with ``cur > want``
        still has the wraparound ahead (it must pass coordinate k-1 and
        jump to 0), so it rides lane 0; once ``cur < want`` the wraparound
        is behind and it rides lane 1.  Symmetrically for negative travel.
        Lane-0 rings are never entered at the post-dateline edge and
        lane-1 rings never take the wraparound, so neither lane's ring
        closes — the dependency cycles the Section 4.2 algorithms avoid
        nonminimally are broken here with the extra channel instead.
        """
        if sign > 0:
            return 0 if cur > want else 1
        return 0 if cur < want else 1


class LaneSplitRouting(RoutingAlgorithm):
    """One deadlock-free algorithm per lane; packets commit at injection.

    Args:
        topology: a :class:`VirtualChannelTopology` with exactly as many
            lanes as ``per_lane`` entries.
        per_lane: factory per lane, called with the *base* topology; the
            resulting algorithm's channels are mapped into that lane.
        chooser: picks the lane for a packet, given (source, destination);
            defaults to balancing by the zero-load quadrant: lane index
            ``(src + dest coordinate parity)`` — override for smarter
            policies.  Must be deterministic (Markovian routing needs the
            lane to be recoverable from the incoming channel).
        name: label for reports.
    """

    minimal = True
    uses_in_channel = True  # the arrival lane pins the packet's algorithm

    def __init__(
        self,
        topology: VirtualChannelTopology,
        per_lane: Sequence[Callable[[object], RoutingAlgorithm]],
        chooser: Optional[Callable[[NodeId, NodeId], int]] = None,
        name: str = "lane-split",
    ):
        if not isinstance(topology, VirtualChannelTopology):
            raise ValueError("lane-split routing needs a VirtualChannelTopology")
        if len(per_lane) != topology.lanes:
            raise ValueError(
                f"need one algorithm per lane: {len(per_lane)} != {topology.lanes}"
            )
        super().__init__(topology)
        self.name = name
        self._algorithms = [factory(topology.base) for factory in per_lane]
        self._chooser = chooser or self._default_chooser
        self.minimal = all(alg.minimal for alg in self._algorithms)

    def _default_chooser(self, src: NodeId, dest: NodeId) -> int:
        # Node ids are tuples of ints, whose hash CPython computes
        # seed-independently, so the lane choice — and every golden
        # digest downstream of it — is identical across interpreter
        # invocations under any PYTHONHASHSEED (pinned by
        # tests/routing/test_lane_hashseed.py).
        digest = hash((src, dest))  # repro-lint: allow[hash-stability] int-tuple operands only; PYTHONHASHSEED-independent
        return digest % self.topology.lanes

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        if in_channel is None:
            lane = self._chooser(node, dest)
            if not 0 <= lane < self.topology.lanes:
                raise ValueError(f"lane chooser returned {lane}")
            base_in = None
        else:
            lane = in_channel.lane
            base_in = self._strip_lane(in_channel)
        algorithm = self._algorithms[lane]
        return tuple(
            self.topology.lane_of(channel, lane)
            for channel in algorithm.route(base_in, node, dest)
        )

    def _strip_lane(self, channel: Channel) -> Channel:
        from dataclasses import replace

        return replace(channel, lane=0)


def o1turn_routing(topology: VirtualChannelTopology) -> LaneSplitRouting:
    """Lane-split xy/yx routing on a two-lane 2D mesh.

    Lane 0 runs xy and lane 1 runs yx; each packet commits to one lane at
    injection (hash-balanced over the pair).  Between the two lanes every
    source-destination pair has both L-shaped minimal paths available,
    which repairs dimension-order routing's weakness on transpose-like
    permutations while remaining deadlock free — the classic
    virtual-channel alternative the turn model is positioned against.
    """
    if topology.base.n_dims != 2:
        raise ValueError("o1turn routing is defined for 2D meshes")
    return LaneSplitRouting(
        topology,
        [partial(make_routing, "xy"), partial(make_routing, "yx")],
        name="o1turn",
    )
