"""The bit-parallel fault path, held to the per-destination definitions.

A fault event restricts a healthy table in three steps, each of which
answers for every destination at once or touches only what changed:
reach is one fixpoint over channel ids
(:meth:`repro.sim.ids.ReachRelation.fixpoint`), the restriction
rewrites only the entries at the nodes a dropped id leaves
(:meth:`repro.sim.ids.CompiledRoutes.restricted`), and the restriction
check compares only the entries that are not the parent's own tuples
(:meth:`repro.sim.ids.CompiledRoutes.is_restriction`).  Each is held
here to the plain form it replaces (``tests/sim/reach_oracle.py``).
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.digraph import mask_ids
from repro.core.restrictions import TurnRestriction
from repro.routing import TurnRestrictionRouting, available_algorithms, make_routing
from repro.sim.deadlock import figure4_routing
from repro.sim.ids import ChannelIndex, CompiledRoutes
from repro.synth.enumeration import enumerate_candidates
from repro.topology import Mesh2D, parse_topology
from tests.sim.reach_oracle import destination, full_scan_restricted, reach_dropped

FAULT_COUNTS = (1, 2, 5, 12)
SEEDS = (0, 1, 2)


def drawn_faults(healthy: CompiledRoutes, count: int, seed: int) -> List[int]:
    return random.Random(seed * 1000 + count).sample(
        range(healthy.index.num_channels), count
    )


def table_of(compiled: CompiledRoutes) -> dict:
    """Every entry a table holds, keyed as its table is."""
    if compiled.dense is not None:
        return {key: entry for key, entry in enumerate(compiled.dense) if entry is not None}
    assert compiled.bykey is not None
    return dict(compiled.bykey)


def assert_the_rule_is_the_oracle(healthy: CompiledRoutes) -> int:
    """Over drawn fault sets, the fixpoint drops what one reverse search
    per destination drops, and the restricted table is the full scan's.
    Returns the dropped (id, destination) pairs seen."""
    relation = healthy.reach_relation()
    seen = 0
    for count in FAULT_COUNTS:
        for seed in SEEDS:
            failed = drawn_faults(healthy, min(count, healthy.index.num_channels), seed)
            want = reach_dropped(healthy, failed)
            live = relation.fixpoint(relation.accepting, set(failed))
            got = [
                sum(1 << ident for ident, (held, kept) in enumerate(zip(relation.held, live))
                    if (held & ~kept) >> dest_idx & 1)
                for dest_idx in range(healthy.index.num_nodes)
            ]
            assert got == want, (count, seed)
            rule = CompiledRoutes.reach_restricted(healthy, failed)
            dropped = [frozenset(mask_ids(mask)) for mask in want]
            assert table_of(rule) == full_scan_restricted(healthy, dropped)
            seen += sum(bin(mask).count("1") for mask in want)
    return seen


CANDIDATES_2D, _ = enumerate_candidates(2)


@pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "nonminimal"])
@pytest.mark.parametrize("index", range(len(CANDIDATES_2D)))
def test_every_2d_candidate_on_a_4x4_mesh(index, minimal):
    restriction = TurnRestriction(2, frozenset(CANDIDATES_2D[index]))
    routing = TurnRestrictionRouting(parse_topology("mesh:4x4"), restriction, minimal=minimal)
    assert assert_the_rule_is_the_oracle(CompiledRoutes(routing)) > 0


def _registry_cases():
    return [
        (spec, name)
        for spec in ("mesh:8x8", "torus:4x2", "cube:4")
        for name in available_algorithms(parse_topology(spec))
    ]


@pytest.mark.parametrize("spec,name", _registry_cases(), ids=lambda v: str(v))
def test_registry_tables(spec, name):
    healthy = CompiledRoutes(make_routing(name, parse_topology(spec)))
    assert assert_the_rule_is_the_oracle(healthy) > 0


def test_the_registry_cases_hold_both_modes():
    names = {name for _, name in _registry_cases()}
    assert {"xy", "west-first", "p-cube"} <= names
    assert {"west-first-nonminimal", "p-cube-nonminimal"} <= names


def test_figure_4s_cyclic_relation():
    """The relation has cycles, so ids on them finish by the worklist."""
    healthy = CompiledRoutes(figure4_routing(Mesh2D(5, 5)))
    assert healthy.reach_relation().feeders
    assert assert_the_rule_is_the_oracle(healthy) > 0


def test_connectivity_reads_the_same_reach():
    """With nothing blocked, the fixpoint seeded by the accepting ids is
    the delivering set, and the dead ends are the oracle's."""
    healthy = CompiledRoutes(figure4_routing(Mesh2D(5, 5)))
    closure = healthy.closure()
    relation = healthy.reach_relation()
    delivering = relation.fixpoint(relation.accepting)
    dead = relation.dead_ends()
    undelivered = reach_dropped(healthy, [])
    for dest_idx, reached in enumerate(closure.reached):
        _, _, dead_ends = destination(closure, dest_idx)
        assert [ident for ident, mask in enumerate(dead) if mask >> dest_idx & 1] == dead_ends
        delivered = sum(1 << ident for ident, mask in enumerate(delivering)
                        if mask >> dest_idx & 1)
        assert delivered == reached & ~undelivered[dest_idx]


FAMILIES = ("mesh:4x4", "mesh:3x3x3", "cube:4", "torus:4x2", "hex:5x5", "oct:5x5")


def _family_cases():
    return [
        (family, name)
        for family in FAMILIES
        for name in available_algorithms(parse_topology(family))
    ]


@pytest.mark.parametrize("spec,name", _family_cases(), ids=lambda v: str(v))
def test_node_local_restriction_is_the_full_scan(spec, name):
    healthy = CompiledRoutes(make_routing(name, parse_topology(spec)))
    healthy.closure()
    index = healthy.index
    num_nodes = index.num_nodes
    source, _ = index.node_links()
    # The invariant the node-local rewrite relies on: an entry offers
    # only channels that leave its node.
    for key, entry in table_of(healthy).items():
        node = key // num_nodes if key < num_nodes * num_nodes else (
            index.dest_node_id[key // num_nodes - num_nodes]
        )
        assert all(source[out] == node for out in entry), (key, entry)
    rng = random.Random(7)
    for share in (0.05, 0.3):
        # A different draw per destination, so no two destinations lose
        # the same ids.
        dropped = [
            frozenset(ident for ident in range(index.num_channels) if rng.random() < share)
            for _ in range(num_nodes)
        ]
        derived = CompiledRoutes.restricted(healthy, dropped)
        assert table_of(derived) == full_scan_restricted(healthy, dropped)
        assert derived.is_restriction()


def test_the_families_hold_every_layout():
    layouts = {
        CompiledRoutes(make_routing(name, parse_topology(spec))).dense is None
        for spec, name in _family_cases()
    }
    assert layouts == {True, False}


class TestIsRestriction:
    """The identity screen passes a shared tuple at once and compares the
    rest; none of these may slip through it."""

    @staticmethod
    def derived(name):
        parent = CompiledRoutes(make_routing(name, Mesh2D(4, 4)))
        derived = CompiledRoutes.restricted(parent, [frozenset([3])] * 16)
        table = derived.dense if derived.dense is not None else derived.bykey
        keys = range(len(table)) if derived.dense is not None else list(table)
        # An entry the restriction left shared with the parent.
        key = next(key for key in keys if table[key] and 3 not in table[key])
        return parent, derived, table, key

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"])
    def test_a_non_subset_entry_fails(self, name):
        parent, derived, table, key = self.derived(name)
        assert derived.is_restriction()
        entry = table[key]
        table[key] = entry + (next(o for o in range(parent.index.num_channels)
                                   if o not in entry),)
        assert not derived.is_restriction()

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"])
    def test_an_equal_tuple_that_is_not_the_parent_s_passes(self, name):
        parent, derived, table, key = self.derived(name)
        copy = tuple(list(table[key]))
        assert copy == table[key] and copy is not table[key]
        table[key] = copy
        assert derived.is_restriction()
        # ... and is still compared: reordered, it is the same set.
        table[key] = copy[::-1]
        assert derived.is_restriction()

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"])
    def test_a_foreign_index_fails(self, name):
        parent, derived, _, _ = self.derived(name)
        derived.index = ChannelIndex(Mesh2D(4, 4))
        assert not derived.is_restriction()
        derived.index = parent.index
        assert derived.is_restriction()
