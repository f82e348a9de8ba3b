"""Shortest-path counting on the compiled table against a per-pair oracle.

:func:`repro.sim.ids.shortest_path_counts` counts, on channel ids, every
source toward one destination in one pass.  The oracle below is the
object-level walk it replaced, made plainer still: it calls
``route_fn`` with objects, with a fresh memo and fresh distance calls
for every ordered pair, so nothing is shared between sources and no
table is read.
"""

from functools import lru_cache
from typing import Dict, Optional

import pytest

from repro.core.adaptiveness import average_adaptiveness_ratio, s_fully_adaptive
from repro.core.channel_graph import RouteFn
from repro.core.restrictions import TurnRestriction
from repro.resilience.controller import degrade
from repro.routing import make_routing
from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import available_algorithms
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import CompiledRoutes, shortest_path_counts
from repro.synth import enumerate_candidates
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.faults import random_channel_faults
from repro.topology.mesh import Mesh2D
from repro.topology.spec import parse_topology
from repro.verify import default_targets

from tests.sim.degraded import degraded_routing

TOPOLOGIES = ("mesh:4x4", "mesh:3x3x3", "cube:4")

CASES = [
    (spec, name)
    for spec in TOPOLOGIES
    for name in available_algorithms(parse_topology(spec))
]
CASE_IDS = [f"{spec}/{name}" for spec, name in CASES]

CANDIDATES_2D = enumerate_candidates(2)[0]


def oracle_count(
    topology: Topology, route_fn: RouteFn, src: NodeId, dst: NodeId
) -> int:
    """Shortest paths from ``src`` to ``dst``, one pair at a time."""
    if src == dst:
        return 1

    @lru_cache(maxsize=None)
    def paths_from(channel: Optional[Channel], node: NodeId) -> int:
        if node == dst:
            return 1
        here = topology.distance(node, dst)
        total = 0
        for out in route_fn(channel, node, dst):
            if topology.distance(out.dst, dst) == here - 1:
                total += paths_from(out, out.dst)
        return total

    return paths_from(None, src)


def oracle_average(topology: Topology, route_fn: RouteFn) -> float:
    """Mean ``S_p / S_f``, summed source-major one pair at a time."""
    nodes = list(topology.nodes())
    total = 0.0
    pairs = 0
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            total += oracle_count(topology, route_fn, src, dst) / s_fully_adaptive(
                src, dst
            )
            pairs += 1
    return total / pairs


def table_counts(compiled: CompiledRoutes) -> Dict[NodeId, Dict[NodeId, int]]:
    """Destination -> source -> ``S``, counted on ``compiled``'s ids."""
    nodes = compiled.index.nodes
    return {
        dst: dict(zip(nodes, shortest_path_counts(compiled, d)))
        for d, dst in enumerate(nodes)
    }


def id_counts(routing: RoutingAlgorithm) -> Dict[NodeId, Dict[NodeId, int]]:
    """:func:`table_counts` on a fresh compiled table of ``routing``."""
    return table_counts(CompiledRoutes(routing))


def assert_counts_match_the_oracle(
    counts: Dict[NodeId, Dict[NodeId, int]], topology: Topology, route_fn: RouteFn
) -> None:
    nodes = list(topology.nodes())
    assert list(counts) == nodes
    for dst in nodes:
        assert list(counts[dst]) == nodes
        for src in nodes:
            assert counts[dst][src] == oracle_count(topology, route_fn, src, dst), (
                src, dst
            )


@pytest.mark.parametrize("spec,name", CASES, ids=CASE_IDS)
def test_per_destination_counts_match_the_per_pair_walk(spec, name):
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    assert_counts_match_the_oracle(id_counts(routing), topology, routing)


VC_TARGETS = [target for target in default_targets() if "+2vc" in target.label]


@pytest.mark.parametrize("target", VC_TARGETS, ids=lambda target: target.label)
def test_lanes_count_as_distinct_paths(target):
    # Each lane is a channel of its own; o1turn compiles to the keyed
    # table and dateline DOR to the dense one.
    assert_counts_match_the_oracle(
        id_counts(target.routing), target.topology, target.routing
    )


@pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "nonminimal"])
@pytest.mark.parametrize(
    "prohibited", CANDIDATES_2D, ids=[str(i) for i in range(len(CANDIDATES_2D))]
)
def test_every_2d_candidate_counts_like_the_walk(prohibited, minimal):
    # All 16 one-turn-per-cycle sets, the four deadlocking ones included:
    # productive hops never revisit a node, so the count is defined on
    # every relation.
    mesh = Mesh2D(4, 4)
    routing = TurnRestrictionRouting(
        mesh, TurnRestriction(2, prohibited), minimal=minimal
    )
    assert_counts_match_the_oracle(id_counts(routing), mesh, routing)


@pytest.mark.parametrize("faults", [2, 4, 8])
@pytest.mark.parametrize(
    "name", ["west-first", "west-first-nonminimal"], ids=["filter", "rebuild"]
)
def test_degraded_tables_count_like_their_definition(name, faults):
    mesh = Mesh2D(6, 6)
    healthy = CompiledRoutes(make_routing(name, mesh))
    failed = random_channel_faults(mesh, faults, seed=faults).failed
    derived = degrade(healthy, failed)
    defined = degraded_routing(healthy.routing, failed, mesh)
    assert_counts_match_the_oracle(table_counts(derived), mesh, defined)
    # A fault on a shortest path removes paths and adds none.
    whole = table_counts(healthy)
    counts = table_counts(derived)
    assert all(
        counts[dst][src] <= whole[dst][src] for dst in counts for src in counts
    )
    assert counts != whole


def test_an_open_table_is_filled_as_it_is_counted():
    mesh = Mesh2D(4, 4)
    routing = make_routing("west-first-nonminimal", mesh)
    compiled = CompiledRoutes(routing)
    assert compiled.filled == 0
    assert_counts_match_the_oracle(table_counts(compiled), mesh, routing)
    filled = compiled.filled
    assert filled > 0
    compiled.closure()
    assert compiled.filled >= filled


@pytest.mark.parametrize("spec,name", CASES, ids=CASE_IDS)
def test_average_keeps_the_source_major_float_sum(spec, name):
    """Bit-equal, not approximately equal: a destination-major sum
    changes the last bits and with them the order of tied synth scores."""
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    assert average_adaptiveness_ratio(id_counts(routing)) == oracle_average(
        topology, routing
    )
