"""Deadlock-freedom certification (Theorems 2-5, Dally-Seitz).

The prover constructs an explicit channel numbering under which every
realizable routing step is strictly monotone — the executable form of the
paper's Theorem 2/3/5 proofs.  A router on exactly west-first's,
north-last's or negative-first's turn set gets the paper's own
closed-form numbering scheme from :mod:`repro.core.numbering`; everything
else falls back to a topological numbering of the exact channel dependency
relation, which exists precisely when the relation is acyclic.

Refutations come with a :class:`~repro.core.channel_graph.CycleWitness`:
a shortest realizable dependency cycle rendered as channels, turns, and
example destinations, matching the paper's Figure 1 and Figure 4 pictures
for the two negative-control fixtures.

The prover decides on channel ids.  It reads one relation per target:
the forward closure of the compiled int-id route table
(:meth:`repro.sim.ids.CompiledRoutes.closure`), the same table the
engine routes on, whose ``succ`` masks are the exact dependency
relation.  One Kahn pass over them (:func:`closure_numbering`) decides
and numbers an acyclic relation; only a cyclic one is searched
breadth-first for a shortest cycle, rendered as channels at the end
(:func:`cycle_witness`).  A closed-form numbering is checked on the same
masks (:func:`is_monotone`).

The certificate is machine checkable:
:func:`recheck_numbering_certificate` rebuilds the dependency graph at
the object level, straight from the routing callable
(:func:`repro.core.channel_graph.routing_cdg`), and replays the
monotonicity argument edge by edge against the numbering stored in the
certificate — it shares neither the relation nor the decider with the
prover.

A fault run keeps the id-level numbering itself as its proof: one
numbering of the healthy relation certifies every restriction of it
(:func:`repro.verify.suite.recertify`).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.channel_graph import CycleWitness, RouteFn
from repro.core.digraph import mask_ids, topological_numbering
from repro.core.numbering import (
    negative_first_numbering,
    north_last_numbering,
    numbering_violations,
    west_first_numbering,
)
from repro.core.restrictions import (
    TurnRestriction,
    negative_first_restriction,
    north_last_restriction,
    west_first_restriction,
)
from repro.core.turns import Turn
from repro.routing.base import RoutingAlgorithm
from repro.sim.ids import ChannelIndex, CompiledRoutes, RouteClosure
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
    "is_monotone",
    "recheck_numbering_certificate",
    "route_closure",
    "witness_certificate",
]

#: A closed-form numbering scheme: ``(scheme label, order, constructor)``.
#: The constructor's numbering may still fail to certify (e.g. a torus
#: variant reusing a mesh name), in which case the prover falls back to
#: the topological numbering.
_Scheme = Tuple[str, str, Callable[[Topology], Dict[Channel, int]]]


def _turn_set(restriction: TurnRestriction) -> Tuple[FrozenSet[Turn], FrozenSet[Turn]]:
    return restriction.prohibited, restriction.allowed_reversals


def _closed_form_scheme(
    topology: Topology, routing: RoutingAlgorithm
) -> Optional[_Scheme]:
    """The paper's numbering scheme for this algorithm's turn set, if any.

    Matched on the whole turn set — prohibited turns and permitted
    reversals — so any router on exactly west-first's, north-last's or
    negative-first's turns gets that theorem's numbering.
    """
    restriction = getattr(routing, "restriction", None)
    if not isinstance(restriction, TurnRestriction):
        return None
    turns = _turn_set(restriction)
    if type(topology) is Mesh2D:
        if turns == _turn_set(west_first_restriction()):
            return (
                "theorem-2-west-first",
                "decreasing",
                lambda t: west_first_numbering(t),  # type: ignore[arg-type]
            )
        if turns == _turn_set(north_last_restriction()):
            return (
                "theorem-3-north-last",
                "increasing",
                lambda t: north_last_numbering(t),  # type: ignore[arg-type]
            )
    plain_mesh = type(topology) in (Mesh, Mesh2D, Hypercube)
    if plain_mesh and turns == _turn_set(negative_first_restriction(topology.n_dims)):
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


def closure_numbering(closure: RouteClosure) -> Optional[List[int]]:
    """An id-level numbering of the closure's dependency relation, read
    straight off its ``succ`` masks by the one Kahn pass
    (:func:`~repro.core.digraph.topological_numbering`): channel id ->
    rank in a topological order, so every dependency strictly increases.
    ``None`` when the relation has a cycle, which no numbering can
    order."""
    return topological_numbering(closure.succ)


def is_monotone(succ: Sequence[int], numbering: Sequence[int]) -> bool:
    """Whether ``numbering`` strictly increases along every dependency
    ``succ`` holds (network channel id -> bitmask of its successors)."""
    return all(
        numbering[out] > numbering[front]
        for front, mask in enumerate(succ)
        for out in mask_ids(mask)
    )


def _shortest_cycle(succ: Sequence[int]) -> List[int]:
    """A shortest dependency cycle of a cyclic relation, as channel ids in
    order (first not repeated at the end); empty when it is acyclic.

    One breadth-first search per root, roots and successors in ascending
    id, keeping the first cycle no later root shortens, so the witness
    is deterministic.  It costs ``O(V (V + E))``: callers decide with
    :func:`closure_numbering` first and run this only on a relation
    known to be cyclic.  Minimal witnesses are the readable ones: the
    Figure 1 deadlock renders as the paper's four-channel square, not an
    arbitrary search artifact.
    """
    best: List[int] = []
    for root in range(len(succ)):
        if len(best) == 1:
            break
        parent = {root: root}
        level = [root]
        depth = 0  # hops from root to the channels in ``level``
        found: Optional[int] = None
        while level and found is None and (not best or depth + 1 < len(best)):
            next_level: List[int] = []
            for front in level:
                for out in mask_ids(succ[front]):
                    if out == root:
                        found = front
                        break
                    if out not in parent:
                        parent[out] = front
                        next_level.append(out)
                if found is not None:
                    break
            level = next_level
            depth += 1
        if found is None:
            continue
        cycle = [found]
        while cycle[-1] != root:
            cycle.append(parent[cycle[-1]])
        cycle.reverse()
        if not best or len(cycle) < len(best):
            best = cycle
    return best


def cycle_witness(closure: RouteClosure, cycle: Sequence[int]) -> CycleWitness:
    """Render a dependency cycle of channel ids as channels and turns,
    annotating each edge with the first destination whose packets can
    hold its tail and request its head."""
    compiled = closure.compiled
    index = compiled.index
    channels = index.channels
    edge_dests: Dict[Tuple[Channel, Channel], NodeId] = {}
    for position, front in enumerate(cycle):
        out = cycle[(position + 1) % len(cycle)]
        for dest_idx, reached in enumerate(closure.reached):
            if (
                reached >> front & 1
                and index.dest_node_id[front] != dest_idx
                and out in compiled.lookup(front, dest_idx)
            ):
                edge_dests[(channels[front], channels[out])] = index.nodes[dest_idx]
                break
    return CycleWitness.from_channels((channels[ident] for ident in cycle), edge_dests)


class Dependencies(NamedTuple):
    """The verdict of a closure's one decision, shared by the deadlock
    and livelock checkers.

    Attributes:
        numbering: channel id -> rank in a topological order of the
            relation (:func:`closure_numbering`), or ``None`` when it
            has a cycle.
        witness: a shortest realizable dependency cycle, or ``None``
            when the relation is acyclic.
    """

    numbering: Optional[List[int]]
    witness: Optional[CycleWitness]


def closure_dependencies(closure: RouteClosure) -> Dependencies:
    """Decide the closure's relation once, on its ``succ`` masks: one
    Kahn pass numbers an acyclic relation, and only a cyclic one pays
    for the shortest-cycle search that makes its witness readable."""
    numbering = closure_numbering(closure)
    if numbering is not None:
        return Dependencies(numbering, None)
    return Dependencies(None, cycle_witness(closure, _shortest_cycle(closure.succ)))


def check_deadlock_freedom(
    topology: Topology,
    routing: RoutingAlgorithm,
    closure: Optional[RouteClosure] = None,
    dependencies: Optional[Dependencies] = None,
) -> CheckResult:
    """Prove or refute deadlock freedom for one routing relation.

    Proof: an explicit channel numbering (closed form when the paper has
    one, topological otherwise) under which every edge of the exact
    channel dependency relation is strictly monotone.  Refutation: a
    shortest realizable dependency cycle, rendered as channels and turns.

    ``closure`` is the relation to read when the caller already holds
    the closure of the table it will route on, and ``dependencies`` its
    :func:`closure_dependencies`; each is taken here otherwise.
    """
    if closure is None:
        closure = route_closure(topology, routing)
    if dependencies is None:
        dependencies = closure_dependencies(closure)
    numbering, witness = dependencies
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
    assert numbering is not None  # an acyclic relation is numbered

    succ = closure.succ
    index = closure.compiled.index
    channels = topology.channels()
    # Rank the topology's channels in the decided order: a closure over a
    # healthy index also numbers the channels a fault removed.
    ranked = sorted((index.cid[channel] for channel in channels), key=numbering.__getitem__)
    numbers = {index.channels[ident]: rank for rank, ident in enumerate(ranked)}
    scheme_name = "topological"
    order = "increasing"
    scheme = _closed_form_scheme(topology, routing)
    if scheme is not None:
        candidate_name, candidate_order, build = scheme
        candidate = build(topology)
        sign = -1 if candidate_order == "decreasing" else 1
        signed = [0] * len(succ)
        for channel, number in candidate.items():
            signed[index.cid[channel]] = sign * number
        if is_monotone(succ, signed):
            scheme_name, order, numbers = candidate_name, candidate_order, candidate
    edges = sum(mask.bit_count() for mask in succ)

    certificate = Certificate(
        kind="channel-numbering",
        summary=(
            f"{scheme_name} numbering of {len(channels)} channels; every "
            f"one of {edges} realizable dependencies strictly "
            f"{'decreases' if order == 'decreasing' else 'increases'}"
        ),
        data={
            "scheme": scheme_name,
            "order": order,
            "edges": edges,
            "numbering": {
                channel_key(channel): number for channel, number in numbers.items()
            },
        },
    )
    return CheckResult(
        check="deadlock-freedom",
        verdict=PROVED,
        detail=(
            f"acyclic dependency graph; {scheme_name} numbering is strictly "
            f"{order} across all {edges} dependencies"
        ),
        certificate=certificate,
    )


def recheck_numbering_certificate(
    topology: Topology, route_fn: RouteFn, certificate: Certificate
) -> bool:
    """Independently re-verify a channel-numbering certificate.

    Rebuilds the exact channel dependency graph from the routing callable
    at the object level and checks, edge by edge, that the numbering
    stored in the certificate is strictly monotone in the recorded order
    (:func:`~repro.core.numbering.numbering_violations`) and covers every
    channel.  The prover decides on the compiled id table's closure
    instead, so this re-check shares neither relation nor decider with
    it: a bug in either cannot silently certify an unsafe algorithm.
    """
    if certificate.kind != "channel-numbering":
        return False
    order = certificate.data.get("order")
    if order not in ("increasing", "decreasing"):
        return False
    stored: Mapping[str, int] = certificate.data.get("numbering", {})
    numbering: Dict[Channel, int] = {}
    for channel in topology.channels():
        key = channel_key(channel)
        if key not in stored:
            return False
        numbering[channel] = stored[key]
    return not numbering_violations(topology, route_fn, numbering, order)
