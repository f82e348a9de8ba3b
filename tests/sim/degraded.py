"""The degraded routings a fault's tables are defined to equal.

Nothing in the package builds a routing on a fault: it restricts the
healthy compiled table.  A run does so by
:func:`repro.resilience.controller.degrade`, and the static analyses and
the faulted verify target by the one reach rule
(:meth:`repro.sim.ids.CompiledRoutes.reach_restricted`).  These are the
object-level definitions those restrictions are held to — by the
derived == defined property tests, and by the reference engine, which
routes every faulted run through :func:`degraded_routing` live:

* *filter* (a run of every routing but a nonminimal turn table):
  :class:`FilteredRouting`, the healthy decision minus the failed
  channels;
* *rebuild* (a nonminimal
  :class:`~repro.routing.turn_table.TurnRestrictionRouting`): the same
  turn table re-made on the degraded topology, whose reachability search
  routes around the faults;
* *look-ahead* (a minimal turn table under the reach rule):
  :class:`LookAheadRouting`, the minimal turn-set router re-made on the
  degraded topology, which offers a productive permitted hop only when a
  permitted all-productive path survives behind it.

:func:`faulted_routing` picks the reach rule's definition for a turn
table: look-ahead when minimal, rebuild when not.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.directions import Direction
from repro.core.restrictions import TurnRestriction
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import TurnRestrictionRouting
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.faults import FaultyTopology

__all__ = [
    "FilteredRouting",
    "LookAheadRouting",
    "degraded_routing",
    "faulted_routing",
    "target_routing",
]


class FilteredRouting(RoutingAlgorithm):
    """A routing relation with the failed channels filtered out.

    Attributes:
        degraded_base: the healthy algorithm being filtered.
        failed: the channels filtered from every decision.
    """

    def __init__(
        self,
        base: RoutingAlgorithm,
        failed: FrozenSet[Channel],
        topology: Topology,
    ):
        super().__init__(topology)
        self.degraded_base = base
        self.failed = failed
        self.name = base.name
        self.minimal = base.minimal
        self.uses_in_channel = base.uses_in_channel

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        failed = self.failed
        return tuple(
            channel
            for channel in self.degraded_base.route(in_channel, node, dest)
            if channel not in failed
        )


class LookAheadRouting(RoutingAlgorithm):
    """Minimal turn-set routing on any topology, by look-ahead.

    Offers each productive hop whose turn from the arrival is permitted
    and after which a permitted all-productive path still reaches the
    destination (e.g. a north-last packet never turns north while
    eastward hops remain, since it could never turn back east).  On a
    :class:`~repro.topology.faults.FaultyTopology` the failed channels
    are simply absent; distances stay the healthy ones.
    """

    def __init__(self, topology: Topology, restriction: TurnRestriction, name: str = ""):
        super().__init__(topology)
        self.restriction = restriction
        self.name = name or restriction.name or "turn-table"
        self._cache: Dict[Tuple[NodeId, Optional[Direction], NodeId], bool] = {}

    def _reaches(self, node: NodeId, arrival: Optional[Direction], dest: NodeId) -> bool:
        # The recursion is over strictly decreasing distance, so it
        # terminates within the network diameter.
        if node == dest:
            return True
        key = (node, arrival, dest)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = any(
                self._reaches(channel.dst, channel.direction, dest)
                for channel in self.productive_channels(node, dest)
                if self.restriction.permits(arrival, channel.direction)
            )
        return cached

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        arrival = self.in_direction(in_channel)
        return tuple(
            channel
            for channel in self.productive_channels(node, dest)
            if self.restriction.permits(arrival, channel.direction)
            and self._reaches(channel.dst, channel.direction, dest)
        )


def faulted_routing(
    base: TurnRestrictionRouting, failed: FrozenSet[Channel], topology: Topology
) -> RoutingAlgorithm:
    """The definition of the reach rule's table for the turn table
    ``base`` (on ``topology``, its healthy network) while ``failed`` are
    dead: the turn table re-made on the degraded network."""
    degraded = FaultyTopology(topology, failed)
    if base.minimal:
        return LookAheadRouting(degraded, base.restriction, name=base.name)
    return TurnRestrictionRouting.from_dict(base.to_dict(), degraded)


def degraded_routing(
    base: RoutingAlgorithm, failed: FrozenSet[Channel], topology: Topology
) -> RoutingAlgorithm:
    """The definition of ``base``'s degraded run table while ``failed``
    are dead on ``topology`` (``base``'s healthy topology)."""
    if isinstance(base, TurnRestrictionRouting) and not base.minimal:
        return faulted_routing(base, failed, topology)
    return FilteredRouting(base, failed, FaultyTopology(topology, failed))


def target_routing(target) -> RoutingAlgorithm:
    """The object-level routing whose relation a
    :class:`~repro.verify.suite.VerifyTarget` certifies on its topology:
    its routing, or for a target carrying a reach-rule table (the
    faulted mesh) the turn table re-made on its faulted topology."""
    if target.table is None:
        return target.routing
    faulty = target.topology
    return faulted_routing(target.routing, faulty.failed, faulty.base)
