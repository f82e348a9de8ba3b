"""Connectivity certification: every pair routable, no dead-end states.

Deadlock freedom is worthless if the restriction disconnects the network —
the paper's Step 4 demands prohibitions that leave every source able to
reach every destination.  This checker proves, per destination, that

* every source has at least one permitted first hop from which some
  permitted walk delivers the packet (no unroutable pairs), and
* no reachable routing state is a dead end — a channel whose packet the
  algorithm leaves with no output (the base-class contract calls an empty
  result for a reachable state a bug).

Delivery is decided by reverse reachability over the closure, read
bit-parallel over destinations (:class:`~repro.sim.ids.ReachRelation`):
one least fixpoint over channel ids, seeded by the channels entering
each destination, answers for all of them at once.  It is exact even
when the dependency graph is cyclic (where the livelock and deadlock
checkers refute separately): a state delivers iff *some* permitted walk
from it ends at the destination.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.channel_graph import RouteFn
from repro.core.digraph import mask_ids
from repro.sim.ids import ReachRelation, RouteClosure
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.verify.deadlock import route_closure
from repro.verify.report import PROVED, REFUTED, Certificate, CheckResult

__all__ = ["check_connectivity"]

#: How many counterexamples a refutation certificate keeps.
_SAMPLE = 20


def check_connectivity(
    topology: Topology, route_fn: RouteFn, closure: Optional[RouteClosure] = None
) -> CheckResult:
    """Prove or refute that the routing relation connects the network
    (reading ``closure`` when the caller already holds the relation)."""
    if closure is None:
        closure = route_closure(topology, route_fn)
    compiled = closure.compiled
    index = compiled.index
    nodes = index.nodes
    # Built here and not kept on the table: most certified tables never
    # see a fault event, which is what ``compiled.reverse`` is kept for.
    relation = compiled.reverse or ReachRelation(closure)
    delivering = relation.fixpoint(relation.accepting)
    unroutable: List[Tuple[NodeId, NodeId]] = []
    dead_end_states: List[Tuple[Channel, NodeId]] = [
        (index.channels[front], nodes[dest_idx])
        for dest_idx, front in sorted(
            (dest_idx, front)
            for front, dead in enumerate(relation.dead_ends())
            for dest_idx in mask_ids(dead)
        )
    ]
    pairs = 0
    states = 0
    for dest_idx, dest in enumerate(nodes):
        states += bin(closure.reached[dest_idx]).count("1")
        for source_idx, source in enumerate(nodes):
            if source_idx == dest_idx:
                continue
            pairs += 1
            firsts = compiled.lookup(index.inj_base + source_idx, dest_idx)
            if not any(delivering[first] >> dest_idx & 1 for first in firsts):
                unroutable.append((source, dest))

    if unroutable or dead_end_states:
        certificate = Certificate(
            kind="connectivity-counterexample",
            summary=(
                f"{len(unroutable)} unroutable pairs, "
                f"{len(dead_end_states)} dead-end states"
            ),
            data={
                "unroutable_pairs": [
                    [list(src), list(dst)] for src, dst in unroutable[:_SAMPLE]
                ],
                "dead_ends": [
                    {"channel": str(channel), "dest": list(dest)}
                    for channel, dest in dead_end_states[:_SAMPLE]
                ],
                "unroutable_total": len(unroutable),
                "dead_end_total": len(dead_end_states),
            },
        )
        first_bad = (
            f"e.g. {unroutable[0][0]} cannot reach {unroutable[0][1]}"
            if unroutable
            else f"e.g. packet on {dead_end_states[0][0]} bound for "
            f"{dead_end_states[0][1]} has no output"
        )
        return CheckResult(
            check="connectivity",
            verdict=REFUTED,
            detail=(
                f"{len(unroutable)} of {pairs} pairs unroutable, "
                f"{len(dead_end_states)} reachable dead-end states; {first_bad}"
            ),
            certificate=certificate,
        )

    certificate = Certificate(
        kind="reachable-states",
        summary=(
            f"all {pairs} ordered pairs routable; "
            f"{states} reachable routing states, none a dead end"
        ),
        data={"pairs": pairs, "states": states, "dead_ends": 0},
    )
    return CheckResult(
        check="connectivity",
        verdict=PROVED,
        detail=(
            f"all {pairs} ordered (src, dst) pairs deliver; every one of "
            f"{states} reachable routing states offers an output"
        ),
        certificate=certificate,
    )
