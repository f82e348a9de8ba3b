"""Dense integer encoding of one topology's simulation resources.

The flat engine core (:mod:`repro.sim.flatcore`) replaces per-channel
Python objects with parallel arrays indexed by a *channel id*.  This
module owns the id layout, derived purely from the topology's canonical
iteration order so every process reconstructs the same encoding:

* network channels get ids ``0 .. C-1`` in ``topology.channels()`` order;
* injection channels get ids ``C + node_index`` and ejection channels
  ``C + N + node_index``, with ``node_index`` taken from
  ``topology.nodes()`` order — a channel's kind is derivable from its
  id range alone.

Physical links (for virtual-channel lane arbitration) are numbered in
first-lane-seen order, mirroring the per-``(src, dst)`` grouping the
object core keys its used-set on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["ChannelIndex"]


class ChannelIndex:
    """The id tables for one topology (immutable after construction).

    Attributes:
        nodes: topology nodes in canonical order (``node_id`` inverse).
        channels: network channels in canonical order (``cid`` inverse).
        node_id: node -> dense node index.
        cid: network channel -> dense channel id.
        num_nodes, num_channels: table sizes (``N``, ``C``).
        inj_base: first injection id (``C``); node ``i`` injects on
            ``inj_base + i``.
        ej_base: first ejection id (``C + N``); node ``i`` ejects on
            ``ej_base + i``.
        total_ids: ``C + 2N``, the length of every parallel array.
        dest_node_id: id -> node index a flit is at after crossing the
            channel (a network channel's ``dst``; the owning node for
            injection and ejection channels).
        channel_of: id -> the topology :class:`Channel`, or ``None`` for
            injection/ejection ids.
        node_of: id -> the node the id is anchored at (``dst`` for
            network channels; the served node for injection/ejection).
        phys_of: network channel id -> dense physical-link id (lanes of
            one ``(src, dst)`` link share it).
        num_physical: distinct physical links.
        multilane: whether any channel has a nonzero lane.
    """

    __slots__ = (
        "nodes", "channels", "node_id", "cid", "num_nodes", "num_channels",
        "inj_base", "ej_base", "total_ids", "dest_node_id", "channel_of",
        "node_of", "phys_of", "num_physical", "multilane",
    )

    def __init__(self, topology: Topology) -> None:
        nodes: List[NodeId] = list(topology.nodes())
        channels: List[Channel] = list(topology.channels())
        self.nodes = nodes
        self.channels = channels
        self.node_id: Dict[NodeId, int] = {
            node: index for index, node in enumerate(nodes)
        }
        self.cid: Dict[Channel, int] = {
            channel: index for index, channel in enumerate(channels)
        }
        num_channels = len(channels)
        num_nodes = len(nodes)
        self.num_channels = num_channels
        self.num_nodes = num_nodes
        self.inj_base = num_channels
        self.ej_base = num_channels + num_nodes
        self.total_ids = num_channels + 2 * num_nodes
        node_id = self.node_id
        node_range = list(range(num_nodes))
        self.dest_node_id: List[int] = [
            node_id[channel.dst] for channel in channels
        ] + node_range + node_range
        self.channel_of: List[Optional[Channel]] = (
            list(channels) + [None] * (2 * num_nodes)
        )
        self.node_of: List[NodeId] = [
            channel.dst for channel in channels
        ] + nodes + nodes
        physical: Dict[Tuple[NodeId, NodeId], int] = {}
        phys_of: List[int] = []
        for channel in channels:
            key = (channel.src, channel.dst)
            link = physical.get(key)
            if link is None:
                link = len(physical)
                physical[key] = link
            phys_of.append(link)
        self.phys_of = phys_of
        self.num_physical = len(physical)
        self.multilane = any(channel.lane != 0 for channel in channels)

    def kind_of(self, ident: int) -> str:
        """The resource kind of one id (diagnostics; not a hot path)."""
        if ident < self.inj_base:
            return "network"
        if ident < self.ej_base:
            return "injection"
        return "ejection"

    def __repr__(self) -> str:
        return (
            f"ChannelIndex(C={self.num_channels}, N={self.num_nodes}, "
            f"multilane={self.multilane})"
        )
