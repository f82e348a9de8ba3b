"""Routing driven directly by a turn restriction.

The turn model's promise is that *any* routing algorithm using only the
permitted turns is deadlock free.  :class:`TurnRestrictionRouting` is the
most literal such algorithm: it offers every output channel whose turn from
the incoming direction is permitted, optionally filtered to shortest-path
hops (minimal mode) or to hops from which the destination remains reachable
(nonminimal mode).

The named algorithms of Sections 3-5 (xy, yx, e-cube, west-first,
north-last, negative-first, p-cube, ABONF, ABOPL) are exactly this router
over their turn sets: the registry builds them from ``(restriction,
minimal)``, so the relation that is simulated and certified is the turn
set itself.  Minimal mode compiles as fast as a hand-written phase rule
would: on a mesh, torus or hypercube the decision depends only on the
arrival direction and the (capped) offsets to the destination, and
under a transitive restriction not even on the arrival.  It runs only
there; a topology without those coordinate lanes (a faulted network,
hex, oct) has no minimal turn-table router.

Nonminimal mode reads reach on channel ids: the turn-induced relation
(:func:`~repro.core.channel_graph.turn_successors`, Step 4's) is
reversed once, and each destination's reach is one reverse search over
it (:func:`~repro.core.digraph.ancestors`).

The package never re-makes this router after a fault: a faulted run,
and every static analysis of faults, restricts the healthy compiled
table instead (:meth:`repro.sim.ids.CompiledRoutes.reach_restricted`).
"""

from __future__ import annotations

from operator import itemgetter, mul, sub
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.channel_graph import turn_successors
from repro.core.digraph import ancestors, mask_ids
from repro.core.directions import Direction, all_directions
from repro.core.restrictions import TurnRestriction
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

__all__ = ["TurnRestrictionRouting"]

#: A minimal-mode memo key: the arrival direction's slot (``-1`` at
#: injection) and the capped per-dimension offsets to the destination.
_OffsetKey = Tuple[int, Tuple[int, ...]]

#: Per node, its position (offsets to a destination are the difference
#: of two positions) and the values a decision's getter reads: the mesh
#: out-channel of each slot ``2 * dim + (sign > 0)``, each of those as a
#: 1-tuple, then the empty tuple.
_Lane = Tuple[int, Tuple[Any, ...]]

#: Reads a decision's channels off a node's :data:`_Lane` values.
_Getter = Callable[[Tuple[Any, ...]], Tuple[Channel, ...]]


def _coordinate_lanes(topology: Topology) -> Optional[Dict[NodeId, _Lane]]:
    """Each node's position and channel slots, if offsets decide routing.

    ``None`` unless every productive mesh channel exists — a mesh, torus
    or hypercube with the stock coordinate-compare
    :meth:`~repro.topology.base.Topology.minimal_directions` — since only
    then does a minimal decision depend on offsets alone.  A
    :class:`~repro.topology.faults.FaultyTopology` is never one.
    """
    if not isinstance(topology, (Mesh, Torus, Hypercube)):
        return None
    if type(topology).minimal_directions is not Topology.minimal_directions:
        return None
    # Radix ``base`` exceeds twice any offset, so a position difference
    # names the offsets uniquely.
    base = 2 * max(topology.shape)
    weights = [base**dim for dim in range(topology.n_dims)]
    lanes: Dict[NodeId, _Lane] = {}
    for node in topology.nodes():
        slots: List[Optional[Channel]] = [None] * (2 * topology.n_dims)
        for channel in topology.out_channels(node):
            if not channel.wraparound:
                direction = channel.direction
                slots[2 * direction.dim + (direction.sign > 0)] = channel
        singles = [(slot,) for slot in slots]
        lanes[node] = (sum(map(mul, node, weights)), (*slots, *singles, ()))
    return lanes


class TurnRestrictionRouting(RoutingAlgorithm):
    """Routing that offers every channel with a permitted turn.

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
        # Minimal mode needs a topology with every productive mesh
        # channel: per-node positions and channel slots (:data:`_Lane`);
        # each decision is computed once per (arrival slot, capped
        # offsets) into ``_entries`` and read by position difference
        # from ``_decisions``.
        self._lanes = _coordinate_lanes(topology) if minimal else None
        if minimal and self._lanes is None:
            raise ValueError(
                f"minimal turn-table routing needs a mesh, torus or hypercube "
                f"with every productive channel, not {topology!r}; a faulted "
                f"network restricts the healthy table instead"
            )
        self._transitive = minimal and restriction.is_transitive()
        if self._transitive:
            # Every reachable state routes like an injection at its node.
            self.uses_in_channel = False
        self._cap = 1 if self._transitive else topology.n_dims + 1
        # Per arrival slot, the bitmask of slots it may turn into; the
        # last row, read at slot -1, is injection's: every slot.
        directions = list(all_directions(topology.n_dims))
        turns = self._turns = [
            sum(1 << slot for slot, to in enumerate(directions) if restriction.permits(frm, to))
            for frm in directions
        ] + [(1 << len(directions)) - 1]
        # Per slot, the slots it may turn into or be turned into from.
        self._comparable = [
            turns[a] | sum(1 << b for b in range(len(directions)) if turns[b] >> a & 1)
            for a in range(len(directions))
        ]
        self._entries: Dict[_OffsetKey, Tuple[int, ...]] = {}
        # Per arrival slot (``-1`` last), position difference -> the
        # getter of the entry's channels from a node's slots, shared by
        # equal entries.
        self._decisions: List[Dict[int, _Getter]] = [{} for _ in range(len(directions) + 1)]
        self._getters: Dict[Tuple[int, ...], _Getter] = {}
        # Nonminimal mode: the turn-induced relation reversed, on
        # ``topology.channels()`` ids, and per destination the bitmask
        # of the ids whose holder can reach it.
        self._cid: Dict[Channel, int] = {}
        self._predecessors: Dict[int, List[int]] = {}
        self._reach: Dict[NodeId, int] = {}
        if not minimal:
            self._cid = {channel: ident for ident, channel in enumerate(topology.channels())}
            for front, mask in enumerate(turn_successors(topology, restriction)):
                for out in mask_ids(mask):
                    self._predecessors.setdefault(out, []).append(front)
        # Nonminimal mode, per (node, arrival): the mesh outputs the
        # restriction permits, each with its id's bit and direction.
        self._permitted: Dict[
            Tuple[NodeId, Optional[Direction]],
            Tuple[Tuple[Channel, int, Direction], ...],
        ] = {}

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

    def _entry(self, arrival: int, offsets: Tuple[int, ...]) -> Tuple[int, ...]:
        """Slots of the productive hops permitted from slot ``arrival``
        after which a permitted all-productive path covers ``offsets``.

        The offset form of a look-ahead over productive permitted hops: a state
        reaches its destination iff its entry is non-empty or nothing is left.
        Under a transitive restriction it is closed: a chain of permitted turns
        through the needed directions permits every turn from an earlier to a
        later one, so a hop in direction ``o`` keeps a path iff ``o`` may turn
        into every other needed direction and each pair of those may turn one
        into the other (then they are a tournament, which has a Hamiltonian
        path).  Otherwise it recurses on offsets capped at ``n + 1``: a shortest
        permitted walk takes at most ``n`` runs in each of its directions, so
        larger offsets decide nothing, and one hop off a capped offset still
        leaves ``n``.
        """
        cap = self._cap
        offsets = tuple(max(-cap, min(cap, offset)) for offset in offsets)
        key = (arrival, offsets)
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        turns = self._turns
        allowed = turns[arrival]
        needed = [2 * dim + (offset > 0) for dim, offset in enumerate(offsets) if offset]
        if self._transitive:
            mask = sum(1 << slot for slot in needed)
            comparable = self._comparable
            if not any(mask & ~comparable[slot] for slot in needed):
                entry = tuple(
                    slot for slot in needed
                    if allowed >> slot & 1 and not mask & ~turns[slot]
                )
            else:
                entry = ()
        else:
            chosen = []
            for slot in needed:
                if allowed >> slot & 1:
                    dim = slot // 2
                    step = offsets[dim] - 1 if slot & 1 else offsets[dim] + 1
                    after = offsets[:dim] + (step,) + offsets[dim + 1:]
                    if not any(after) or self._entry(slot, after):
                        chosen.append(slot)
            entry = tuple(chosen)
        self._entries[key] = entry
        return entry

    def _getter(self, entry: Tuple[int, ...]) -> _Getter:
        """The function taking a node's slots to ``entry``'s channels.

        An :func:`~operator.itemgetter` returns a tuple only for two or
        more indices, so one slot reads its 1-tuple and none the empty
        tuple (see :data:`_Lane`).
        """
        getter = self._getters.get(entry)
        if getter is None:
            width = 2 * self.topology.n_dims
            if len(entry) > 1:
                getter = itemgetter(*entry)
            else:
                getter = itemgetter(width + entry[0] if entry else 2 * width)
            self._getters[entry] = getter
        return getter

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        lanes = self._lanes
        if lanes is not None:
            if in_channel is None:
                arrival = -1
            else:
                direction = in_channel.direction
                arrival = 2 * direction.dim + (direction.sign > 0)
            position, slots = lanes[node]
            decisions = self._decisions[arrival]
            key = lanes[dest][0] - position
            getter = decisions.get(key)
            if getter is None:
                getter = decisions[key] = self._getter(
                    self._entry(arrival, tuple(map(sub, dest, node)))
                )
            return getter(slots)
        arrival = self.in_direction(in_channel)
        permitted = self._permitted.get((node, arrival))
        if permitted is None:
            permitted = self._permitted[(node, arrival)] = tuple(
                (channel, 1 << self._cid[channel], channel.direction)
                for channel in self.topology.out_channels(node)
                if not channel.wraparound
                and self.restriction.permits(arrival, channel.direction)
            )
        reach = self._reach.get(dest)
        if reach is None:
            # A holder reaches dest if some permitted next hop does.
            reach = self._reach[dest] = ancestors(
                self._predecessors, map(self._cid.__getitem__, self.topology.in_channels(dest))
            )
        productive = self.topology.minimal_directions(node, dest)
        first: List[Channel] = []
        rest: List[Channel] = []
        for channel, bit, direction in permitted:
            if reach & bit:
                (first if direction in productive else rest).append(channel)
        return tuple(first + rest)
