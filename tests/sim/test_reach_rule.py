"""The one reach rule every fault relation follows, held to its oracles.

:meth:`repro.sim.ids.CompiledRoutes.reach_restricted` restricts a
healthy table after a fault: drop the failed ids, then drop every id
whose holder can no longer reach the destination.  Its definitions are
the turn tables re-made on the faulted network (``tests/sim/degraded.py``):
the look-ahead router for a minimal turn set, the rebuilt reachability
router for a nonminimal one.  Both are compiled here on the healthy
channel index, and must reach the same states with the same entries.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.digraph import mask_ids
from repro.routing import TurnRestrictionRouting, available_algorithms, make_routing
from repro.sim.deadlock import figure4_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import Mesh2D, parse_topology, random_channel_faults
from tests.sim.degraded import degraded_routing, faulted_routing


def assert_equal_tables(rule: CompiledRoutes, oracle: CompiledRoutes) -> int:
    """Both tables reach the same states, and hold equal entries there,
    in the same order.  Returns the states compared."""
    rule_closure, oracle_closure = rule.closure(), oracle.closure()
    assert rule_closure.reached == oracle_closure.reached
    assert rule_closure.succ == oracle_closure.succ
    index = rule.index
    compared = 0
    for dest_idx, reached in enumerate(rule_closure.reached):
        injections = [
            index.inj_base + source for source in range(index.num_nodes) if source != dest_idx
        ]
        for front in [*injections, *mask_ids(reached)]:
            if index.dest_node_id[front] == dest_idx:
                continue
            got, want = rule.lookup(front, dest_idx), oracle.lookup(front, dest_idx)
            assert got == want, (
                index.channel_of[front], index.nodes[dest_idx], got, want,
            )
            compared += 1
    return compared


def rule_and_oracle(routing, failed):
    """The reach rule's table of ``routing``'s healthy table, and the
    oracle for it compiled on the same ids."""
    topology = routing.topology
    healthy = CompiledRoutes(routing)
    ids = [healthy.index.cid[channel] for channel in failed]
    rule = CompiledRoutes.reach_restricted(healthy, ids)
    oracle = CompiledRoutes(faulted_routing(routing, frozenset(failed), topology), healthy.index)
    return rule, oracle


def greatest_fixpoint_drops(healthy: CompiledRoutes, failed: List[int]) -> List[int]:
    """Per destination, what the other rule drops: the failed ids, then
    every id whose entry is left with no live output, until nothing
    changes.  A cycle of live ids keeps each of its outputs, so it stays
    even when it cannot reach the destination."""
    closure = healthy.closure()
    index = healthy.index
    blocked = sum(1 << ident for ident in failed)
    drops = []
    for dest_idx, reached in enumerate(closure.reached):
        alive = reached & ~blocked
        changed = True
        while changed:
            changed = False
            for front in mask_ids(alive):
                if index.dest_node_id[front] == dest_idx:
                    continue
                if not any(alive >> out & 1 for out in healthy.lookup(front, dest_idx)):
                    alive &= ~(1 << front)
                    changed = True
        drops.append(reached & ~alive)
    return drops


def dropped_by(rule: CompiledRoutes, healthy: CompiledRoutes) -> List[int]:
    """Per destination, the healthy closure's ids that no entry of
    ``rule`` offers any more, read over the healthy closure's states."""
    closure = healthy.closure()
    index = healthy.index
    drops = []
    for dest_idx, reached in enumerate(closure.reached):
        offered = 0
        injections = [
            index.inj_base + source for source in range(index.num_nodes) if source != dest_idx
        ]
        for front in [*injections, *mask_ids(reached)]:
            if index.dest_node_id[front] != dest_idx:
                for out in rule.lookup(front, dest_idx):
                    offered |= 1 << out
        drops.append(reached & ~offered)
    return drops


class TestTheRuleIsReach:
    """On a cyclic relation the two fixpoints differ, and the rule is the
    least one: what the turn table re-made on the faulted mesh offers."""

    def test_on_figure_4s_cyclic_relation(self):
        mesh = Mesh2D(5, 5)
        routing = figure4_routing(mesh)
        healthy = CompiledRoutes(routing)
        index = healthy.index
        kept_cycles = 0
        for count in range(1, 9):
            for seed in range(20):
                failed = random_channel_faults(mesh, count, seed=seed).failed
                ids = [index.cid[channel] for channel in failed]
                rule = CompiledRoutes.reach_restricted(healthy, ids)
                oracle = CompiledRoutes(degraded_routing(routing, failed, mesh), index)
                assert_equal_tables(rule, oracle)
                for dropped, kept in zip(
                    dropped_by(rule, healthy), greatest_fixpoint_drops(healthy, ids)
                ):
                    # The other rule drops a subset: what it keeps beyond
                    # reach is a live cycle that never arrives.
                    assert kept & ~dropped == 0
                    kept_cycles += kept != dropped
        # The set holds cases where the two rules differ, so this test
        # tells them apart.
        assert kept_cycles > 0


def _cases():
    cases = []
    for spec in ("mesh:6x6", "mesh:3x3x3", "cube:4"):
        topology = parse_topology(spec)
        for name in available_algorithms(topology):
            # The turn-set rows, minimal and nonminimal (Figure 12's
            # p-cube-nonminimal is not a turn set).
            if isinstance(make_routing(name, topology), TurnRestrictionRouting):
                cases.append((spec, name))
    return cases


CASES = _cases()


def test_the_cases_cover_minimal_and_nonminimal_rows():
    names = {name for _, name in CASES}
    assert {"xy", "e-cube", "p-cube", "negative-first", "abopl"} <= names
    assert {"west-first-nonminimal", "negative-first-nonminimal"} <= names
    assert sum(spec == "cube:4" for spec, _ in CASES) >= 6


@pytest.mark.parametrize("spec,name", CASES, ids=lambda v: str(v))
def test_the_rule_equals_the_turn_table_re_made_on_the_faults(spec, name):
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    compared = 0
    for count, seed in ((2, 1), (4, 2), (8, 3)):
        failed = random_channel_faults(topology, count, seed=seed).failed
        rule, oracle = rule_and_oracle(routing, failed)
        # The turn table and the look-ahead both list a node's outputs in
        # out-channel order, so the restricted entries keep it too.
        compared += assert_equal_tables(rule, oracle)
    assert compared > 0


def test_the_reversed_relation_is_built_once_per_table():
    mesh = Mesh2D(4, 4)
    healthy = CompiledRoutes(make_routing("west-first-nonminimal", mesh))
    channels = mesh.channels()
    CompiledRoutes.reach_restricted(healthy, [healthy.index.cid[channels[0]]])
    relation = healthy.reverse
    assert relation is not None and healthy.reach_relation() is relation
    # It holds, per id, the destinations of the closure that hold the id.
    for dest_idx, reached in enumerate(healthy.closure().reached):
        assert reached == sum(
            1 << ident for ident, held in enumerate(relation.held) if held >> dest_idx & 1
        )
    CompiledRoutes.reach_restricted(healthy, [healthy.index.cid[channels[5]]])
    assert healthy.reverse is relation


def test_no_fault_drops_nothing():
    mesh = Mesh2D(4, 4)
    for name in ("west-first", "negative-first-nonminimal"):
        healthy = CompiledRoutes(make_routing(name, mesh))
        rule = CompiledRoutes.reach_restricted(healthy, [])
        table = healthy.dense if healthy.dense is not None else healthy.bykey
        derived = rule.dense if rule.dense is not None else rule.bykey
        assert derived == table
