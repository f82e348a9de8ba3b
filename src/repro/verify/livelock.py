"""Livelock-freedom certification via walk-length bounds.

A wormhole packet livelocks when the algorithm can shuttle it forever
without delivery.  Over an *acyclic* channel dependency graph that is
impossible: every permitted walk visits a strictly monotone channel
sequence (the deadlock certificate's numbering), so its length is bounded
by the longest path of the graph.  This checker computes that bound
explicitly and emits it as the certificate — a concrete "no packet takes
more than B hops" statement, which for minimal algorithms collapses to
the network diameter and for the paper's nonminimal algorithms stays
finite because every misroute consumes monotone-numbered channels.
The bound is computed on the closure's channel ids, in the topological
order the deadlock decider's one Kahn pass found
(:func:`~repro.verify.deadlock.closure_dependencies`).

A cyclic dependency graph is refuted: the cycle is a permitted walk of
unbounded length (and a deadlock risk besides, which the deadlock checker
reports with the same witness).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.channel_graph import RouteFn
from repro.core.digraph import mask_ids
from repro.sim.ids import RouteClosure
from repro.topology.base import Topology
from repro.verify.deadlock import (
    Dependencies,
    closure_dependencies,
    route_closure,
    witness_certificate,
)
from repro.verify.report import PROVED, REFUTED, Certificate, CheckResult

__all__ = ["check_livelock_freedom"]


def _longest_path(succ: Sequence[int], numbering: Sequence[int]) -> List[int]:
    """A longest (most channels) path of an acyclic relation, as channel
    ids: one relaxation pass over the channels in ``numbering``'s
    topological order."""
    if not succ:
        return []
    length = [0] * len(succ)
    parent = [-1] * len(succ)
    for front in sorted(range(len(succ)), key=numbering.__getitem__):
        for out in mask_ids(succ[front]):
            if length[front] + 1 > length[out]:
                length[out] = length[front] + 1
                parent[out] = front
    path = [length.index(max(length))]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def check_livelock_freedom(
    topology: Topology,
    route_fn: RouteFn,
    closure: Optional[RouteClosure] = None,
    dependencies: Optional[Dependencies] = None,
) -> CheckResult:
    """Prove or refute that every permitted walk has bounded length
    (reading ``closure`` and its ``dependencies`` when the caller
    already holds them, as the deadlock checker does)."""
    if closure is None:
        closure = route_closure(topology, route_fn)
    if dependencies is None:
        dependencies = closure_dependencies(closure)
    numbering, witness = dependencies
    if witness is not None:
        return CheckResult(
            check="livelock-freedom",
            verdict=REFUTED,
            detail=(
                f"permitted walks can repeat a {len(witness)}-channel "
                "dependency cycle, so no hop bound exists"
            ),
            certificate=witness_certificate(witness),
        )
    assert numbering is not None  # an acyclic relation is numbered

    succ = closure.succ
    channels = closure.compiled.index.channels
    path = [channels[ident] for ident in _longest_path(succ, numbering)]
    bound = len(path)
    count = topology.num_channels
    certificate = Certificate(
        kind="longest-path",
        summary=(
            f"every permitted walk ends within {bound} hops (longest path "
            f"of the acyclic dependency graph over {count} channels)"
        ),
        data={
            "bound_hops": bound,
            "channels": count,
            "dependencies": sum(mask.bit_count() for mask in succ),
            "longest_path": [str(channel) for channel in path],
        },
    )
    return CheckResult(
        check="livelock-freedom",
        verdict=PROVED,
        detail=(
            f"acyclic dependency graph bounds every permitted walk at "
            f"{bound} hops"
        ),
        certificate=certificate,
    )
