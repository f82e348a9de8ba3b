"""Fault-tolerance analysis: connectivity under failed channels.

The paper argues nonminimal routing "provides better fault tolerance"
(Section 1) — a minimal algorithm loses a source-destination pair as soon
as every shortest path it permits crosses a failed channel, while a
nonminimal algorithm survives any fault pattern that leaves a
permitted-turn path intact.  :func:`routable_fraction` quantifies this:
the fraction of ordered pairs an algorithm can still route in a faulty
network, read off the compiled relation the provers read (exact for any
relation, cyclic or not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.restrictions import TurnRestriction
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import ancestors
from repro.topology.base import Topology
from repro.topology.faults import random_channel_faults
from repro.verify.deadlock import route_closure

__all__ = ["routable_fraction", "FaultSweepPoint", "fault_tolerance_sweep"]


def routable_fraction(topology: Topology, algorithm: RoutingAlgorithm) -> float:
    """Fraction of ordered pairs the algorithm can route to completion.

    A pair counts as routable when the source is offered a first hop and
    no dead end (a channel short of the destination offering no output)
    is reachable from any of them.  Per destination, one reverse search
    from the dead ends marks every channel that can reach one.
    """
    closure = route_closure(topology, algorithm)
    compiled = closure.compiled
    index = compiled.index
    nodes = range(index.num_nodes)
    routable = 0
    for dest_idx in nodes:
        predecessors, _, dead_ends = closure.destination(dest_idx)
        doomed = ancestors(predecessors, dead_ends)
        for source_idx in nodes:
            if source_idx == dest_idx:
                continue
            firsts = compiled.lookup(index.inj_base + source_idx, dest_idx)
            if firsts and not any(doomed >> first & 1 for first in firsts):
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
    fault set for both modes) and measure each mode's routable fraction.

    Args:
        topology: the healthy network.
        restriction: the turn restriction both routers obey.
        fault_counts: numbers of failed channels to evaluate.
        seed: RNG seed for the fault sets.

    Returns:
        One point per fault count.
    """
    points = []
    for count in fault_counts:
        faulty = random_channel_faults(topology, count, seed=seed + count)
        minimal = TurnRestrictionRouting(faulty, restriction, minimal=True)
        nonminimal = TurnRestrictionRouting(faulty, restriction, minimal=False)
        points.append(
            FaultSweepPoint(
                failed_channels=count,
                minimal_fraction=routable_fraction(faulty, minimal),
                nonminimal_fraction=routable_fraction(faulty, nonminimal),
            )
        )
    return points
