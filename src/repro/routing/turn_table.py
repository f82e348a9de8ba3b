"""Routing driven directly by a turn restriction.

The turn model's promise is that *any* routing algorithm using only the
permitted turns is deadlock free.  :class:`TurnRestrictionRouting` is the
most literal such algorithm: a turn set plus a mode.  It offers every
permitted output from which the destination stays reachable, only
shortest-path hops in minimal mode, and productive hops first in
nonminimal mode ("more adaptive and fault tolerant").

The named algorithms of Sections 3-5 (xy, yx, e-cube, west-first,
north-last, negative-first, p-cube, ABONF, ABOPL) are exactly this router
over their turn sets: the registry builds them from ``(restriction,
minimal)``, so the relation that is simulated and certified is the turn
set itself.

Both modes compile once, on ``topology.channels()`` ids, by one rule:
reach over Step 4's relation
(:func:`~repro.core.channel_graph.turn_successors`).  A channel's reach
is the set of destinations some permitted walk from it enters; minimal
mode admits only walks of productive channels.  Nothing here depends on
the network being whole, so the same compile routes a
:class:`~repro.topology.faults.FaultyTopology`.

The package never re-makes this router after a fault: a faulted run,
and every static analysis of faults, restricts the healthy compiled
table instead (:meth:`repro.sim.ids.CompiledRoutes.reach_restricted`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.channel_graph import turn_successors
from repro.core.digraph import mask_ids
from repro.core.restrictions import TurnRestriction
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

if TYPE_CHECKING:
    from repro.sim.ids import ChannelIndex

__all__ = ["Offers", "TurnRestrictionRouting"]

#: The outputs a header may take from one state, as ``(out, mask)``
#: pairs: a channel id of ``topology.channels()`` and the node indices of
#: the destinations reached through it.  Those reaching a destination by
#: a productive hop come first, then those reaching it by a
#: non-productive one, each part in ascending id order.  A channel is in
#: both parts at most, for disjoint destinations.
Offers = Tuple[Tuple[int, int], ...]


class TurnRestrictionRouting(RoutingAlgorithm):
    """Routing that offers every permitted channel the destination is in
    reach of.

    The first :meth:`route` compiles the whole relation: per channel id,
    the bitmask over node indices of the destinations in its reach.
    Reach is the least fixpoint of Step 4's relation reversed, seeded by
    the channels entering each destination; in minimal mode only
    productive channels (a non-wraparound hop toward the destination's
    coordinate) hold any.  An entry is then the permitted non-wraparound
    outputs in the destination's reach: every out-channel at injection,
    the turn-permitted ones after an arrival.  The compile is kept on
    ids, as :data:`Offers` per injection node and per arrival id
    (:meth:`offers_on`); :meth:`route` is their Channel view, and a
    table compiled from this router closes on them directly
    (:meth:`repro.sim.ids.CompiledRoutes.closure`).

    Args:
        topology: the network to route on.
        restriction: which turns are permitted.
        minimal: when true (default) only shortest-path hops are offered;
            when false, any permitted hop that keeps the destination
            reachable is offered, productive hops first — the paper's
            nonminimal mode, "more adaptive and fault tolerant".
        name: optional label; defaults to the restriction's name.
    """

    uses_in_channel = True  # the arrival direction selects permitted turns

    def __init__(
        self,
        topology: Topology,
        restriction: TurnRestriction,
        minimal: bool = True,
        name: str = "",
    ):
        super().__init__(topology)
        if restriction.n_dims != topology.n_dims:
            raise ValueError(
                f"restriction is {restriction.n_dims}-dimensional but the "
                f"topology has {topology.n_dims} dimensions"
            )
        self.restriction = restriction
        self.minimal = minimal
        self.name = name or restriction.name or "turn-table"
        if not minimal:
            self.name = f"{self.name}-nonminimal"
        if minimal and restriction.is_transitive():
            # Every reachable state routes like an injection at its node.
            self.uses_in_channel = False
        # Filled by the first route: node -> its index, the channels by
        # id and channel -> its id, and the offers at injection per node
        # index and after arrival per channel id.
        self._index: Optional[Dict[NodeId, int]] = None
        self._channels: List[Channel] = []
        self._cid: Dict[Channel, int] = {}
        self._injections: List[Offers] = []
        self._arrivals: List[Offers] = []

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_dict`.

        The emitted ``name`` is the base label — the constructor
        re-appends the ``-nonminimal`` suffix on rebuild — and the
        restriction serializes in sorted order, so equal routers
        serialize byte-identically (the property synthesis manifests
        rely on).
        """
        base_name = self.name
        if not self.minimal and base_name.endswith("-nonminimal"):
            base_name = base_name[: -len("-nonminimal")]
        return {
            "restriction": self.restriction.to_dict(),
            "minimal": self.minimal,
            "name": base_name,
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], topology: Topology
    ) -> "TurnRestrictionRouting":
        """Rebuild a router saved by :meth:`to_dict` on ``topology``."""
        return cls(
            topology,
            TurnRestriction.from_dict(payload["restriction"]),
            minimal=bool(payload.get("minimal", True)),
            name=str(payload.get("name", "")),
        )

    def _compile(self) -> Dict[NodeId, int]:
        """Compute every channel's reach and the offers read off it."""
        topology = self.topology
        channels = topology.channels()
        index = {node: at for at, node in enumerate(topology.nodes())}
        count = len(index)
        # Per dimension and coordinate, the destinations below and above it.
        below: List[List[int]] = []
        above: List[List[int]] = []
        for dim, radix in enumerate(topology.shape):
            at_coordinate = [0] * radix
            for node, at in index.items():
                at_coordinate[node[dim]] |= 1 << at
            below.append([sum(at_coordinate[:x]) for x in range(radix)])
            above.append([sum(at_coordinate[x + 1:]) for x in range(radix)])
        productive: List[int] = []
        for channel in channels:
            dim = channel.direction.dim
            if dim >= len(below):
                raise ValueError(
                    f"{topology!r} has channels along axis {dim}, off its "
                    f"{len(below)} coordinate axes: a turn table needs one "
                    f"coordinate per direction's dimension"
                )
            toward = above if channel.direction.sign > 0 else below
            productive.append(0 if channel.wraparound else toward[dim][channel.src[dim]])
        admitted = productive if self.minimal else [(1 << count) - 1] * len(channels)
        succ = turn_successors(topology, self.restriction)
        successors = [list(mask_ids(mask)) for mask in succ]
        predecessors: List[List[int]] = [[] for _ in channels]
        for front, outs in enumerate(successors):
            for out in outs:
                predecessors[out].append(front)
        # The least fixpoint: a channel reaches its head's node and what
        # its permitted successors reach, as far as it admits.  In Kahn's
        # order, sinks first, an id is settled once: its successors are
        # final by then.  Ids on or behind a cycle never become ready;
        # a worklist settles them among themselves.
        reach = [1 << index[channel.dst] & allowed for channel, allowed in zip(channels, admitted)]
        pending = [len(outs) for outs in successors]
        ready = [ident for ident, left in enumerate(pending) if not left]
        for out in ready:  # grows as ids lose their last pending successor
            mask = reach[out]
            for front in predecessors[out]:
                reach[front] |= mask & admitted[front]
                pending[front] -= 1
                if not pending[front]:
                    ready.append(front)
        work = [ident for ident, left in enumerate(pending) if left]
        while work:
            out = work.pop()
            mask = reach[out]
            for front in predecessors[out]:
                grown = reach[front] | mask & admitted[front]
                if grown != reach[front]:
                    reach[front] = grown
                    work.append(front)
        # Per id, the offer of its channel toward the destinations it
        # reaches by a productive hop, and by a non-productive one.
        near: List[Optional[Tuple[int, int]]] = [None] * len(channels)
        far: List[Optional[Tuple[int, int]]] = [None] * len(channels)
        leaving: List[List[int]] = [[] for _ in index]
        for ident, channel in enumerate(channels):
            if not channel.wraparound:
                leaving[index[channel.src]].append(ident)
                direct = reach[ident] & productive[ident]
                if direct:
                    near[ident] = (ident, direct)
                if reach[ident] ^ direct:
                    far[ident] = (ident, reach[ident] ^ direct)

        def offers(ids: Sequence[int]) -> Offers:
            return tuple(offer for part in (near, far) for offer in map(part.__getitem__, ids)
                         if offer)

        self._channels = channels
        self._cid = {channel: ident for ident, channel in enumerate(channels)}
        self._injections = [offers(ids) for ids in leaving]
        self._arrivals = [offers(outs) for outs in successors]
        self._index = index
        return index

    def offers_on(
        self, index: "ChannelIndex"
    ) -> Optional[Tuple[Sequence[Offers], Sequence[Offers]]]:
        """The compile on ``index``'s ids: per node index the offers at
        injection, and per network channel id the offers after arriving
        on it.  ``None`` when ``index`` numbers other nodes or channels
        than this router's topology (a faulted network's, say)."""
        if self._index is None:
            self._compile()
        if index.channels != self._channels or index.node_id != self._index:
            return None
        return self._injections, self._arrivals

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        index = self._index
        if index is None:
            index = self._compile()
        bit = 1 << index[dest]
        channels = self._channels
        entry = []
        # A loop, not a comprehension, which would build a frame per call:
        # this runs once per routing state.
        for out, mask in (
            self._injections[index[node]] if in_channel is None
            else self._arrivals[self._cid[in_channel]]
        ):
            if mask & bit:
                entry.append(channels[out])
        return tuple(entry)
