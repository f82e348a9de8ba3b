"""The degraded routings a fault run's tables are defined to equal.

The fault controller builds no routing on a fault: it restricts the
run's healthy table (:func:`repro.resilience.controller.degrade`).  These
are the definitions that restriction is held to — by the derived ==
defined property tests, and by the reference engine, which routes every
faulted run through them live:

* *filter* (every routing but a nonminimal turn table):
  :class:`FilteredRouting`, the healthy decision minus the failed
  channels;
* *rebuild* (a nonminimal
  :class:`~repro.routing.turn_table.TurnRestrictionRouting`): the same
  turn table re-made on the degraded topology, whose reachability search
  routes around the faults.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence

from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import TurnRestrictionRouting
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.faults import FaultyTopology

__all__ = ["FilteredRouting", "degraded_routing"]


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


def degraded_routing(
    base: RoutingAlgorithm, failed: FrozenSet[Channel], topology: Topology
) -> RoutingAlgorithm:
    """The definition of ``base``'s degraded table while ``failed`` are
    dead on ``topology`` (``base``'s healthy topology)."""
    degraded = FaultyTopology(topology, failed)
    if isinstance(base, TurnRestrictionRouting) and not base.minimal:
        return TurnRestrictionRouting.from_dict(base.to_dict(), degraded)
    return FilteredRouting(base, failed, degraded)
