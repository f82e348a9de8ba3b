"""The paper's algorithms are their turn sets, and compile densely.

Three things are pinned here:

* **The oracle.**  Each paper algorithm's phase rule, written out in a
  few lines with no fast paths, against the entries the registry's turn
  set compiles to on every ``(node, dest)``.
* **Transitivity detection.**  A minimal router whose restriction is
  transitive (:meth:`TurnRestriction.is_transitive`) drops the arrival
  from its table key; it must then route every reachable state exactly
  like an injection at its node, and a non-transitive one must have a
  reachable state where the two differ (so the test is exact).
* **The reach compile.**  Minimal decisions are read off one
  all-destination reach compile on channel ids; they must equal the
  absolute-state look-ahead (the oracle the faulted tables are held to,
  ``tests/sim/degraded.py``) on every injection and reachable state.

The checks take candidate turn sets, so the synthesis CI job runs
:func:`check_detection` and :func:`check_reach_compile` over all 4096 3D
candidates.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest

from repro.core.directions import Direction
from repro.core.restrictions import TurnRestriction
from repro.routing import TurnRestrictionRouting, available_algorithms, make_routing
from repro.routing.registry import TURN_SETS
from repro.sim.ids import CompiledRoutes
from repro.synth.enumeration import enumerate_candidates
from repro.topology import parse_topology, random_channel_faults
from repro.topology.channels import NodeId
from tests.routing.test_uses_in_channel_audit import reachable_states
from tests.sim.degraded import LookAheadRouting

# -- the oracle ---------------------------------------------------------------


def productive(node: NodeId, dest: NodeId) -> List[Direction]:
    """One direction per differing dimension, toward ``dest``, by dimension."""
    return [
        Direction(dim, 1 if d > s else -1)
        for dim, (s, d) in enumerate(zip(node, dest))
        if s != d
    ]


def dimension_order(order):
    def rule(node, dest):
        hops = productive(node, dest)
        first = min(hops, key=lambda hop: order.index(hop.dim))
        return [first]

    return rule


def west_first(node, dest):
    # West while the destination is west, else every productive hop.
    hops = productive(node, dest)
    return [Direction(0, -1)] if dest[0] < node[0] else hops


def north_last(node, dest):
    # North only once nothing else is left.
    hops = productive(node, dest)
    return [hop for hop in hops if hop != Direction(1, 1)] or hops


def negative_first(node, dest):
    # Every negative hop before any positive one (p-cube: clear bits first).
    hops = productive(node, dest)
    return [hop for hop in hops if hop.is_negative] or hops


def abonf(node, dest):
    # Negative hops of every dimension but the last come first.
    hops = productive(node, dest)
    last = len(node) - 1
    return [hop for hop in hops if hop.is_negative and hop.dim != last] or hops


def abopl(node, dest):
    # Positive hops of every dimension but 0 come last.
    hops = productive(node, dest)
    return [hop for hop in hops if hop.is_negative or hop.dim == 0] or hops


def ascending(node, dest):
    return dimension_order(range(len(node)))(node, dest)


ORACLES: Dict[str, Callable] = {
    "xy": ascending,
    "yx": dimension_order((1, 0)),
    "e-cube": ascending,
    "dimension-order": ascending,
    "west-first": west_first,
    "north-last": north_last,
    "negative-first": negative_first,
    "p-cube": negative_first,
    "abonf": abonf,
    "abopl": abopl,
}

ORACLE_CASES = [
    (spec, name)
    for spec, names in (
        ("mesh:5x4", ORACLES),
        ("mesh:16x16", ORACLES),
        ("mesh:3x3x3", ORACLES),
        ("cube:4", ORACLES),
        ("cube:8", ORACLES),
    )
    for name in names
    if name in available_algorithms(parse_topology(spec))
]


def test_every_turn_set_has_an_oracle():
    assert set(ORACLES) == set(TURN_SETS)


@pytest.mark.parametrize("spec,name", ORACLE_CASES, ids=lambda v: str(v))
def test_compiled_entries_equal_the_phase_rule(spec, name):
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    assert isinstance(routing, TurnRestrictionRouting)
    compiled = CompiledRoutes(routing)
    assert compiled.dense is not None, "a paper turn set compiles dense"
    compiled.closure()
    index = compiled.index
    count = index.num_nodes
    rule = ORACLES[name]
    for node_idx, node in enumerate(index.nodes):
        by_direction = {
            channel.direction: index.cid[channel]
            for channel in topology.out_channels(node)
        }
        for dest_idx, dest in enumerate(index.nodes):
            if node_idx != dest_idx:
                expected = tuple(by_direction[hop] for hop in rule(node, dest))
                assert compiled.dense[node_idx * count + dest_idx] == expected, (
                    name, node, dest,
                )


# -- transitivity detection ---------------------------------------------------


def arrival_dependent_states(topology, routing) -> int:
    """Reachable states whose arrival-aware entry differs from injection's."""
    return sum(
        tuple(routing.route(channel, channel.dst, dest))
        != tuple(routing.route(None, channel.dst, dest))
        for channel, dest in reachable_states(topology, routing)
    )


def check_detection(topology, prohibited) -> bool:
    """Assert the detection is exact for one candidate; return whether the
    candidate is transitive."""
    restriction = TurnRestriction(topology.n_dims, frozenset(prohibited))
    routing = TurnRestrictionRouting(topology, restriction, minimal=True)
    transitive = restriction.is_transitive()
    compiled = CompiledRoutes(routing)
    differing = arrival_dependent_states(topology, routing)
    if transitive:
        assert compiled.dense is not None and not routing.uses_in_channel
        assert differing == 0, (sorted(map(str, prohibited)), differing)
    else:
        assert compiled.bykey is not None and routing.uses_in_channel
        assert differing > 0, sorted(map(str, prohibited))
    return transitive


CANDIDATES_2D, _ = enumerate_candidates(2)
CANDIDATES_3D, _ = enumerate_candidates(3)
TRANSITIVE_3D = [
    prohibited for prohibited in CANDIDATES_3D
    if TurnRestriction(3, prohibited).is_transitive()
]


def test_transitive_counts():
    assert all(TurnRestriction(2, p).is_transitive() for p in CANDIDATES_2D)
    assert len(CANDIDATES_3D) == 4096
    assert len(TRANSITIVE_3D) == 32


def test_every_paper_turn_set_is_transitive():
    for name, build in TURN_SETS.items():
        for n_dims in (2, 3, 4) if name not in ("west-first", "north-last", "yx") else (2,):
            assert build(n_dims).is_transitive(), (name, n_dims)


@pytest.mark.parametrize("index", range(len(CANDIDATES_2D)))
def test_detection_2d(index):
    assert check_detection(parse_topology("mesh:4x4"), CANDIDATES_2D[index])


@pytest.mark.parametrize("index", range(len(CANDIDATES_2D)))
def test_detection_holds_on_a_faulty_mesh(index):
    # On a faulted mesh too: the chain argument needs only a permitted
    # all-productive path, which a realizable state has on any mesh.  So
    # the reach rule's restriction of a transitive set's dense table is
    # exact: the look-ahead on the faulty mesh ignores the arrival too.
    faulty = random_channel_faults(parse_topology("mesh:5x5"), 2, seed=5)
    restriction = TurnRestriction(2, frozenset(CANDIDATES_2D[index]))
    assert restriction.is_transitive()
    assert arrival_dependent_states(faulty, LookAheadRouting(faulty, restriction)) == 0


def test_detection_3d_transitive():
    topology = parse_topology("mesh:3x3x3")
    for prohibited in TRANSITIVE_3D:
        assert check_detection(topology, prohibited)


def test_detection_3d_sampled():
    topology = parse_topology("mesh:3x3x3")
    outcomes = [check_detection(topology, p) for p in CANDIDATES_3D[::32]]
    assert not all(outcomes), "the sample holds non-transitive candidates"


# -- the reach compile --------------------------------------------------------


def absolute_twin(routing: TurnRestrictionRouting) -> LookAheadRouting:
    """The same turn set deciding by the absolute-state look-ahead."""
    return LookAheadRouting(routing.topology, routing.restriction, name=routing.name)


def check_reach_compile(topology, prohibited) -> None:
    """Assert the reach compile decides every injection state and every
    reachable state exactly as the absolute-state recursion does."""
    restriction = TurnRestriction(topology.n_dims, frozenset(prohibited))
    routing = TurnRestrictionRouting(topology, restriction, minimal=True)
    twin = absolute_twin(routing)
    for node in topology.nodes():
        for dest in topology.nodes():
            if node != dest:
                assert routing.route(None, node, dest) == twin.route(None, node, dest)
    for channel, dest in reachable_states(topology, twin):
        assert routing.route(channel, channel.dst, dest) == twin.route(
            channel, channel.dst, dest
        )


@pytest.mark.parametrize(
    "spec,prohibited",
    [("mesh:5x3", CANDIDATES_2D[i]) for i in (0, 5, 15)]
    + [("mesh:6x3x2", CANDIDATES_3D[i]) for i in (0, 777, 2049, 4095)]
    + [("mesh:6x3x2", TRANSITIVE_3D[i]) for i in (0, 31)],
)
def test_reach_compile_equals_the_absolute_recursion(spec, prohibited):
    check_reach_compile(parse_topology(spec), prohibited)
