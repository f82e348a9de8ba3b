"""Per-destination shortest-path counting against a per-pair oracle.

:func:`shortest_path_counts` shares one memo over ``(in-channel, node)``
states among every source bound for a destination.  The oracle below is
the plain per-pair walk it replaced: a fresh memo and fresh distance
calls for every ordered pair, so nothing is shared between sources.
"""

from functools import lru_cache
from typing import Optional

import pytest

from repro.core.adaptiveness import (
    average_adaptiveness_ratio,
    s_fully_adaptive,
    shortest_path_counts,
)
from repro.core.channel_graph import RouteFn
from repro.routing import make_routing
from repro.routing.registry import available_algorithms
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.spec import parse_topology

TOPOLOGIES = ("mesh:4x4", "mesh:3x3x3", "cube:4")

CASES = [
    (spec, name)
    for spec in TOPOLOGIES
    for name in available_algorithms(parse_topology(spec))
]
CASE_IDS = [f"{spec}/{name}" for spec, name in CASES]


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


@pytest.mark.parametrize("spec,name", CASES, ids=CASE_IDS)
def test_per_destination_counts_match_the_per_pair_walk(spec, name):
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    nodes = list(topology.nodes())
    for dst in nodes:
        counts = shortest_path_counts(topology, routing, dst)
        assert set(counts) == set(nodes)
        for src in nodes:
            assert counts[src] == oracle_count(topology, routing, src, dst), (src, dst)


@pytest.mark.parametrize("spec,name", CASES, ids=CASE_IDS)
def test_average_keeps_the_source_major_float_sum(spec, name):
    """Bit-equal, not approximately equal: a destination-major sum
    changes the last bits and with them the order of tied synth scores."""
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    assert average_adaptiveness_ratio(topology, routing) == oracle_average(
        topology, routing
    )


def test_average_reads_tables_the_caller_holds():
    topology = parse_topology("mesh:4x4")
    routing = make_routing("west-first", topology)
    counts = {
        dst: shortest_path_counts(topology, routing, dst) for dst in topology.nodes()
    }
    assert average_adaptiveness_ratio(
        topology, routing, counts
    ) == average_adaptiveness_ratio(topology, routing)
