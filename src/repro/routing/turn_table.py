"""Generic routing driven directly by a turn restriction.

The turn model's promise is that *any* routing algorithm using only the
permitted turns is deadlock free.  :class:`TurnRestrictionRouting` is the
most literal such algorithm: it offers every output channel whose turn from
the incoming direction is permitted, optionally filtered to shortest-path
hops (minimal mode) or to hops from which the destination remains reachable
(nonminimal mode).

The named algorithms of Sections 3-5 are hand-written phase algorithms; the
test suite checks them hop-for-hop equivalent to this table-driven router
instantiated with their restriction, which is how we validate both sides.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.directions import Direction
from repro.core.restrictions import TurnRestriction
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["ReachabilityOracle", "TurnRestrictionRouting"]


class ReachabilityOracle:
    """Answers: from this routing state, can the destination be reached?

    A nonminimal router must never take a hop after which the turn
    restriction makes the destination unreachable (e.g. a negative-first
    packet overshooting its destination in a positive direction could
    never come back).  A routing state is "holding channel ``c``" (at
    ``c.dst``, having arrived in ``c.direction``); ``ids`` numbers the
    channels in ``topology.channels()`` order and the oracle keeps, per
    destination, one bitmask of the ids from which some permitted-turn
    path reaches it, found by reverse breadth-first search over ids.
    """

    def __init__(self, topology: Topology, restriction: TurnRestriction):
        self.topology = topology
        self.restriction = restriction
        channels = topology.channels()
        self.ids: Dict[Channel, int] = {ch: i for i, ch in enumerate(channels)}
        entering: Dict[NodeId, List[int]] = {}
        for ident, channel in enumerate(channels):
            entering.setdefault(channel.dst, []).append(ident)
        self._entering = entering
        self._channels = channels
        # feeders[c]: the channels whose holder may take c as its next hop.
        self._feeders: List[Tuple[int, ...]] = [
            tuple(
                feeder
                for feeder in entering.get(channel.src, ())
                if restriction.permits(channels[feeder].direction, channel.direction)
            )
            for channel in channels
        ]
        self._reach: Dict[NodeId, int] = {}

    def reach_mask(self, dest: NodeId, blocked: int = 0) -> int:
        """Bitmask of the channel ids whose holder can still reach ``dest``.

        ``blocked`` is a bitmask of ids to search without (failed
        channels): the answer is then the reach of the same restriction
        on the topology minus those channels.  Only the unblocked masks
        are cached; a blocked search runs only when a blocked id lies
        inside the unblocked reach, since otherwise it cannot differ.
        """
        mask = self._reach.get(dest)
        if mask is None:
            mask = self._reach[dest] = self._search(dest, 0)
        if mask & blocked:
            return self._search(dest, blocked)
        return mask

    def _search(self, dest: NodeId, blocked: int) -> int:
        # Reverse BFS from the channels that enter dest: a holder reaches
        # dest if some permitted next hop does.  Blocked ids start out
        # seen, so the search neither enters nor expands them.
        seen = blocked
        frontier: List[int] = []
        for ident in self._entering.get(dest, ()):
            if not seen >> ident & 1:
                seen |= 1 << ident
                frontier.append(ident)
        feeders = self._feeders
        for ident in frontier:  # grows as the search advances
            for feeder in feeders[ident]:
                if not seen >> feeder & 1:
                    seen |= 1 << feeder
                    frontier.append(feeder)
        return seen & ~blocked

    def can_reach(
        self, node: NodeId, arrival: Optional[Direction], dest: NodeId
    ) -> bool:
        """Whether ``dest`` is reachable from ``node`` arriving via ``arrival``."""
        if node == dest:
            return True
        mask = self.reach_mask(dest)
        if arrival is None:
            # Freshly injected: every first hop is permitted.
            return any(
                mask >> self.ids[channel] & 1
                for channel in self.topology.out_channels(node)
            )
        return any(
            mask >> ident & 1
            for ident in self._entering.get(node, ())
            if self._channels[ident].direction == arrival
        )


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
        #: Nonminimal mode's reachability oracle (``None`` when minimal).
        self.oracle = None if minimal else ReachabilityOracle(topology, restriction)
        self._minimal_cache: Dict[Tuple[NodeId, Optional[Direction], NodeId], bool] = {}
        # Nonminimal mode, per (node, arrival): the mesh outputs the
        # restriction permits, each with its oracle bit and direction.
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

    def _minimal_reaches(
        self, node: NodeId, arrival: Optional[Direction], dest: NodeId
    ) -> bool:
        """Whether a permitted all-productive path exists from this state.

        Minimal routing must never take a hop into a state from which the
        remaining shortest-path hops require a prohibited turn (e.g. a
        north-last packet turning north while eastward hops remain could
        never turn back east).  The recursion is over strictly decreasing
        distance, so it terminates within the network diameter.
        """
        if node == dest:
            return True
        key = (node, arrival, dest)
        cached = self._minimal_cache.get(key)
        if cached is not None:
            return cached
        result = any(
            self._minimal_reaches(channel.dst, channel.direction, dest)
            for channel in self.productive_channels(node, dest)
            if self.restriction.permits(arrival, channel.direction)
        )
        self._minimal_cache[key] = result
        return result

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        arrival = self.in_direction(in_channel)
        if self.minimal:
            return tuple(
                channel
                for channel in self.productive_channels(node, dest)
                if self.restriction.permits(arrival, channel.direction)
                and self._minimal_reaches(channel.dst, channel.direction, dest)
            )
        oracle = self.oracle
        assert oracle is not None
        permitted = self._permitted.get((node, arrival))
        if permitted is None:
            permitted = self._permitted[(node, arrival)] = tuple(
                (channel, 1 << oracle.ids[channel], channel.direction)
                for channel in self.topology.out_channels(node)
                if not channel.wraparound
                and self.restriction.permits(arrival, channel.direction)
            )
        reach = oracle.reach_mask(dest)
        productive = self.topology.minimal_directions(node, dest)
        first: List[Channel] = []
        rest: List[Channel] = []
        for channel, bit, direction in permitted:
            if reach & bit:
                (first if direction in productive else rest).append(channel)
        return tuple(first + rest)
