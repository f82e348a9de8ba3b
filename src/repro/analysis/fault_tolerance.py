"""Fault-tolerance analysis: connectivity under failed channels.

The paper argues nonminimal routing "provides better fault tolerance"
(Section 1) — a minimal algorithm loses a source-destination pair as soon
as every shortest path it permits crosses a failed channel, while a
nonminimal algorithm survives any fault pattern that leaves a
permitted-turn path intact.  :func:`routable_fraction` quantifies this:
the fraction of ordered pairs a compiled table can still route, read off
its closure (exact for any relation, cyclic or not).

A faulted relation is the healthy table restricted by the one reach rule
(:meth:`~repro.sim.ids.CompiledRoutes.reach_restricted`): the failed ids
go, then every id whose holder can no longer reach the destination.
:func:`fault_tolerance_sweep` compiles each mode's healthy table once
and reads every fault count off it; no router is re-made on the faulted
network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.restrictions import TurnRestriction
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import CompiledRoutes
from repro.topology.base import Topology
from repro.topology.faults import random_channel_faults

__all__ = ["routable_fraction", "FaultSweepPoint", "fault_tolerance_sweep"]


def routable_fraction(compiled: CompiledRoutes) -> float:
    """Fraction of ordered pairs the table can route to completion.

    A pair counts as routable when the source is offered a first hop and
    no dead end (a channel short of the destination offering no output)
    is reachable from any of them.  One fixpoint over the table's
    :class:`~repro.sim.ids.ReachRelation`, seeded by the dead ends,
    marks per channel the destinations for which it can reach one.
    """
    relation = compiled.reach_relation()
    doomed = relation.fixpoint(relation.dead_ends())
    index = compiled.index
    nodes = range(index.num_nodes)
    routable = 0
    for dest_idx in nodes:
        for source_idx in nodes:
            if source_idx == dest_idx:
                continue
            firsts = compiled.lookup(index.inj_base + source_idx, dest_idx)
            if firsts and not any(doomed[first] >> dest_idx & 1 for first in firsts):
                routable += 1
    total = index.num_nodes * (index.num_nodes - 1)
    return routable / total if total else 1.0


@dataclass(frozen=True)
class FaultSweepPoint:
    """Connectivity at one fault count."""

    failed_channels: int
    minimal_fraction: float
    nonminimal_fraction: float


def fault_tolerance_sweep(
    topology: Topology,
    restriction: TurnRestriction,
    fault_counts: Sequence[int],
    seed: int = 0,
) -> List[FaultSweepPoint]:
    """Compare minimal vs nonminimal connectivity as channels fail.

    For each fault count, fail that many channels at random (the same
    fault set for both modes) and measure the routable fraction of each
    mode's healthy table restricted by the reach rule.

    Args:
        topology: the healthy network.
        restriction: the turn restriction both routers obey.
        fault_counts: numbers of failed channels to evaluate.
        seed: RNG seed for the fault sets.

    Returns:
        One point per fault count.
    """
    minimal = CompiledRoutes(TurnRestrictionRouting(topology, restriction, minimal=True))
    nonminimal = CompiledRoutes(TurnRestrictionRouting(topology, restriction, minimal=False))
    cid = minimal.index.cid
    points = []
    for count in fault_counts:
        faults = random_channel_faults(topology, count, seed=seed + count)
        failed = [cid[channel] for channel in faults.failed]
        points.append(
            FaultSweepPoint(
                failed_channels=count,
                minimal_fraction=routable_fraction(
                    CompiledRoutes.reach_restricted(minimal, failed)
                ),
                nonminimal_fraction=routable_fraction(
                    CompiledRoutes.reach_restricted(nonminimal, failed)
                ),
            )
        )
    return points
