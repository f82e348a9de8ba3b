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

A cyclic dependency graph is refuted: the cycle is a permitted walk of
unbounded length (and a deadlock risk besides, which the deadlock checker
reports with the same witness).
"""

from __future__ import annotations

from typing import Optional

from repro.core.channel_graph import RouteFn
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


def check_livelock_freedom(
    topology: Topology,
    route_fn: RouteFn,
    closure: Optional[RouteClosure] = None,
    dependencies: Optional[Dependencies] = None,
) -> CheckResult:
    """Prove or refute that every permitted walk has bounded length
    (reading ``closure`` and its ``dependencies`` when the caller
    already holds them, as the deadlock checker does)."""
    if dependencies is None:
        if closure is None:
            closure = route_closure(topology, route_fn)
        dependencies = closure_dependencies(topology, closure)
    graph, witness = dependencies
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

    path = graph.longest_path()
    bound = len(path)
    certificate = Certificate(
        kind="longest-path",
        summary=(
            f"every permitted walk ends within {bound} hops (longest path "
            f"of the acyclic dependency graph over {graph.num_vertices} "
            "channels)"
        ),
        data={
            "bound_hops": bound,
            "channels": graph.num_vertices,
            "dependencies": graph.num_edges,
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
