"""Deadlock-freedom certification (Theorems 2-5, Dally-Seitz).

The prover constructs an explicit channel numbering under which every
realizable routing step is strictly monotone — the executable form of the
paper's Theorem 2/3/5 proofs.  Named 2D algorithms get the paper's own
closed-form numbering schemes from :mod:`repro.core.numbering`; everything
else falls back to a topological numbering of the exact channel dependency
graph, which exists precisely when the graph is acyclic.

Refutations come with a :class:`~repro.core.channel_graph.CycleWitness`:
a shortest realizable dependency cycle rendered as channels, turns, and
example destinations, matching the paper's Figure 1 and Figure 4 pictures
for the two negative-control fixtures.

The prover reads one relation per target: the forward closure of the
compiled int-id route table (:meth:`repro.sim.ids.CompiledRoutes.closure`),
the same table the engine routes on.  The certificate is machine
checkable: :func:`recheck_numbering_certificate` rebuilds the dependency
graph at the object level, straight from the routing callable
(:func:`repro.core.channel_graph.routing_cdg`), and replays the
monotonicity argument edge by edge against the numbering stored in the
certificate — it shares neither the graph builder nor the monotone
construction with the prover.

A fault run needs a cheaper certificate, checked per fault event: the
id-level numbering :func:`closure_numbering` reads straight off a
closure's ``succ`` masks, checked by :func:`is_monotone`.  One such
numbering of the healthy relation certifies every restriction of it
(:func:`repro.verify.suite.recertify`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.channel_graph import CycleWitness, RouteFn, routing_cdg
from repro.core.digraph import Digraph
from repro.core.numbering import (
    negative_first_numbering,
    north_last_numbering,
    topological_numbering,
    west_first_numbering,
)
from repro.routing.base import RoutingAlgorithm
from repro.sim.ids import ChannelIndex, CompiledRoutes, RouteClosure, mask_ids
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh, Mesh2D
from repro.verify.report import PROVED, REFUTED, Certificate, CheckResult

__all__ = [
    "Dependencies",
    "channel_key",
    "check_deadlock_freedom",
    "closure_dependencies",
    "closure_numbering",
    "cycle_witness",
    "dependency_graph",
    "is_monotone",
    "recheck_numbering_certificate",
    "route_closure",
    "witness_certificate",
]

#: Closed-form numbering schemes, keyed by the algorithm names they
#: certify.  Each entry maps to ``(scheme label, order, constructor,
#: topology guard)``; the constructor may still fail to certify (e.g. a
#: torus variant reusing a mesh name), in which case the prover falls
#: back to the topological numbering.
_Scheme = Tuple[str, str, Callable[[Topology], Dict[Channel, int]]]


def _closed_form_scheme(
    topology: Topology, routing: RoutingAlgorithm
) -> Optional[_Scheme]:
    """The paper's numbering scheme for this algorithm, if one applies."""
    name = routing.name
    if isinstance(topology, Mesh2D) and type(topology) is Mesh2D:
        if name.startswith("west-first"):
            return (
                "theorem-2-west-first",
                "decreasing",
                lambda t: west_first_numbering(t),  # type: ignore[arg-type]
            )
        if name.startswith("north-last"):
            return (
                "theorem-3-north-last",
                "increasing",
                lambda t: north_last_numbering(t),  # type: ignore[arg-type]
            )
    plain_mesh = type(topology) in (Mesh, Mesh2D, Hypercube)
    if plain_mesh and (
        name.startswith("negative-first") or name.startswith("p-cube")
    ):
        return ("theorem-5-negative-first", "increasing", negative_first_numbering)
    return None


def channel_key(channel: Channel) -> str:
    """A stable, human-readable string key for a channel.

    Certificates store numberings as JSON objects, so channels need a
    deterministic text form.  The key extends ``str(channel)`` with the
    direction, which disambiguates torus edge nodes where a mesh channel
    and a wraparound channel join the same endpoints.
    """
    return f"{channel} dir={channel.direction}"


def witness_certificate(witness: CycleWitness) -> Certificate:
    """Package a dependency cycle as a refutation certificate."""
    return Certificate(
        kind="dependency-cycle",
        summary=(
            f"realizable dependency cycle of {len(witness)} channels "
            f"({', '.join(name for name in witness.turn_names() if name != 'straight')})"
        ),
        data={
            "channels": [str(channel) for channel in witness.channels],
            "turns": witness.turn_names(),
            "dests": [
                list(dest) if dest is not None else None for dest in witness.dests
            ],
            "rendered": witness.render(),
        },
    )


def route_closure(topology: Topology, route_fn: RouteFn) -> RouteClosure:
    """Compile ``route_fn`` on ``topology`` and take its forward closure."""
    return CompiledRoutes(route_fn, ChannelIndex(topology)).closure()


def dependency_graph(topology: Topology, closure: RouteClosure) -> Digraph[Channel]:
    """The closure's dependency relation over ``topology``'s channels."""
    channel_of = closure.compiled.index.channel_of
    graph: Digraph[Channel] = Digraph()
    for channel in topology.channels():
        graph.add_vertex(channel)
    for front, mask in enumerate(closure.succ):
        for out in mask_ids(mask):
            graph.add_edge(channel_of[front], channel_of[out])  # type: ignore[arg-type]
    return graph


def closure_numbering(closure: RouteClosure) -> Optional[List[int]]:
    """An id-level numbering of the closure's dependency relation, read
    straight off its ``succ`` masks: channel id -> rank in a topological
    order (Kahn's), so every dependency strictly increases.  ``None``
    when the relation has a cycle, which no numbering can order."""
    succ = closure.succ
    indegree = [0] * len(succ)
    for mask in succ:
        for out in mask_ids(mask):
            indegree[out] += 1
    order = [front for front, count in enumerate(indegree) if not count]
    for front in order:  # grows as channels lose their last predecessor
        for out in mask_ids(succ[front]):
            indegree[out] -= 1
            if not indegree[out]:
                order.append(out)
    if len(order) < len(succ):
        return None
    numbering = [0] * len(succ)
    for rank, front in enumerate(order):
        numbering[front] = rank
    return numbering


def is_monotone(succ: Sequence[int], numbering: Sequence[int]) -> bool:
    """Whether ``numbering`` strictly increases along every dependency
    ``succ`` holds (network channel id -> bitmask of its successors)."""
    return all(
        numbering[out] > numbering[front]
        for front, mask in enumerate(succ)
        for out in mask_ids(mask)
    )


def cycle_witness(closure: RouteClosure, cycle: Sequence[Channel]) -> CycleWitness:
    """Annotate a dependency cycle with, per edge, the first destination
    whose packets can hold its tail and request its head."""
    compiled = closure.compiled
    index = compiled.index
    edge_dests: Dict[Tuple[Channel, Channel], NodeId] = {}
    for position, channel in enumerate(cycle):
        nxt = cycle[(position + 1) % len(cycle)]
        front, out = index.cid[channel], index.cid[nxt]
        for dest_idx, reached in enumerate(closure.reached):
            if (
                reached >> front & 1
                and index.dest_node_id[front] != dest_idx
                and out in compiled.lookup(front, dest_idx)
            ):
                edge_dests[(channel, nxt)] = index.nodes[dest_idx]
                break
    return CycleWitness.from_channels(cycle, edge_dests)


class Dependencies(NamedTuple):
    """A closure's dependency graph and the verdict of its one cycle
    search, shared by the deadlock and livelock checkers.

    Attributes:
        graph: the exact channel dependency graph (:func:`dependency_graph`).
        witness: a shortest realizable dependency cycle, or ``None`` when
            the graph is acyclic.
    """

    graph: Digraph[Channel]
    witness: Optional[CycleWitness]


def closure_dependencies(topology: Topology, closure: RouteClosure) -> Dependencies:
    """Build the closure's dependency graph and search it for a cycle
    once: a DFS decides, and only a cyclic graph pays for the
    shortest-cycle search that makes its witness readable."""
    graph = dependency_graph(topology, closure)
    witness = None
    if graph.find_cycle() is not None:
        cycle = graph.shortest_cycle()
        assert cycle is not None  # find_cycle() found one
        witness = cycle_witness(closure, cycle)
    return Dependencies(graph, witness)


def check_deadlock_freedom(
    topology: Topology,
    routing: RoutingAlgorithm,
    closure: Optional[RouteClosure] = None,
    dependencies: Optional[Dependencies] = None,
) -> CheckResult:
    """Prove or refute deadlock freedom for one routing relation.

    Proof: an explicit channel numbering (closed form when the paper has
    one, topological otherwise) under which every edge of the exact
    channel dependency graph is strictly monotone.  Refutation: a
    shortest realizable dependency cycle, rendered as channels and turns.

    ``closure`` is the relation to read when the caller already holds
    the closure of the table it will route on, and ``dependencies`` its
    :func:`closure_dependencies`; each is taken here otherwise.
    """
    if dependencies is None:
        if closure is None:
            closure = route_closure(topology, routing)
        dependencies = closure_dependencies(topology, closure)
    graph, witness = dependencies
    if witness is not None:
        return CheckResult(
            check="deadlock-freedom",
            verdict=REFUTED,
            detail=(
                f"channel dependency graph has a cycle of {len(witness)} "
                f"channels (turns: {', '.join(witness.turn_names())})"
            ),
            certificate=witness_certificate(witness),
        )

    scheme_name = "topological"
    order = "increasing"
    numbering: Optional[Dict[Channel, int]] = None
    scheme = _closed_form_scheme(topology, routing)
    if scheme is not None:
        candidate_name, candidate_order, build = scheme
        candidate = build(topology)
        if not _violations(graph, candidate, candidate_order):
            scheme_name, order, numbering = candidate_name, candidate_order, candidate
    if numbering is None:
        numbering = topological_numbering(graph)

    certificate = Certificate(
        kind="channel-numbering",
        summary=(
            f"{scheme_name} numbering of {graph.num_vertices} channels; every "
            f"one of {graph.num_edges} realizable dependencies strictly "
            f"{'decreases' if order == 'decreasing' else 'increases'}"
        ),
        data={
            "scheme": scheme_name,
            "order": order,
            "edges": graph.num_edges,
            "numbering": {
                channel_key(channel): number for channel, number in numbering.items()
            },
        },
    )
    return CheckResult(
        check="deadlock-freedom",
        verdict=PROVED,
        detail=(
            f"acyclic dependency graph; {scheme_name} numbering is strictly "
            f"{order} across all {graph.num_edges} dependencies"
        ),
        certificate=certificate,
    )


def _violations(
    graph: Digraph[Channel], numbering: Mapping[Channel, int], order: str
) -> int:
    """Count dependency edges that break the numbering's monotonicity."""
    count = 0
    for in_channel, out_channel in graph.edges():
        before = numbering[in_channel]
        after = numbering[out_channel]
        if order == "decreasing":
            count += 0 if after < before else 1
        else:
            count += 0 if after > before else 1
    return count


def recheck_numbering_certificate(
    topology: Topology, route_fn: RouteFn, certificate: Certificate
) -> bool:
    """Independently re-verify a channel-numbering certificate.

    Rebuilds the exact channel dependency graph from the routing callable
    at the object level (:func:`~repro.core.channel_graph.routing_cdg`)
    and checks, edge by edge, that the numbering stored in the certificate
    is strictly monotone in the recorded order and covers every channel.
    The prover reads the compiled id table's closure instead, so this
    re-check shares neither graph builder nor numbering constructor with
    it: a bug in either cannot silently certify an unsafe algorithm.
    """
    if certificate.kind != "channel-numbering":
        return False
    order = certificate.data.get("order")
    if order not in ("increasing", "decreasing"):
        return False
    stored: Mapping[str, int] = certificate.data.get("numbering", {})
    graph = routing_cdg(topology, route_fn)
    for channel in graph.vertices():
        if channel_key(channel) not in stored:
            return False
    for in_channel, out_channel in graph.edges():
        before = stored[channel_key(in_channel)]
        after = stored[channel_key(out_channel)]
        if order == "decreasing" and not after < before:
            return False
        if order == "increasing" and not after > before:
            return False
    return True
