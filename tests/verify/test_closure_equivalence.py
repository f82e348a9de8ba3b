"""The id closure is the object-level dependency graph, exactly.

The prover reads :meth:`repro.sim.ids.CompiledRoutes.closure` — channel
ids, bitmasks, the engine's own route table — while
:func:`repro.core.channel_graph.routing_cdg` stays the object-level
definition the certificate re-check walks.  These tests hold the two to
identical vertex and edge sets on every default target, and the refuted
fixtures to byte-identical witnesses.
"""

import pytest

from repro.core.channel_graph import routing_cdg
from repro.core.digraph import mask_ids
from repro.routing import make_routing
from repro.sim.ids import ChannelIndex, CompiledRoutes
from repro.topology import Mesh2D
from repro.verify import (
    PROVED,
    check_deadlock_freedom,
    check_livelock_freedom,
    default_targets,
    recheck_numbering_certificate,
)
from repro.topology.faults import FaultyTopology
from tests.core.cdg_oracle import find_dependency_cycle
from tests.sim.degraded import target_routing

TARGETS = default_targets()


def assert_same_graph(topology, routing, closure):
    """``closure``'s relation over ``topology`` equals ``routing_cdg``'s."""
    expected = routing_cdg(topology, routing)
    index = closure.compiled.index
    # A faulted topology's relation is read on its healthy base's ids.
    healthy = topology.base if isinstance(topology, FaultyTopology) else topology
    assert index.channels == healthy.channels()
    live = set(topology.channels())
    assert [channel for channel in index.channels if channel in live] == expected.vertices()
    got = {
        (index.channels[front], index.channels[out])
        for front, mask in enumerate(closure.succ)
        for out in mask_ids(mask)
    }
    assert got == set(expected.edges())
    # The bitmasks themselves name no channel outside the topology.
    live = {index.cid[channel] for channel in live}
    for front, mask in enumerate(closure.succ):
        if mask:
            assert front in live and set(mask_ids(mask)) <= live


def test_sweep_has_every_kind_of_target():
    labels = [target.label for target in TARGETS]
    assert len(labels) == 42
    assert any("+faults2@seed5" in label for label in labels)
    assert sum("+2vc" in label for label in labels) == 2
    assert sum(label.startswith("fixture:") for label in labels) == 2


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_closure_equals_routing_cdg(target):
    assert_same_graph(target.topology, target_routing(target), target.closure())


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_reached_states_match_the_object_closure(target):
    """Per destination, the reached mask is the object-level reached set."""
    topology, routing = target.topology, target_routing(target)
    closure = target.closure()
    index = closure.compiled.index
    for dest_idx, dest in enumerate(index.nodes):
        reached, frontier = set(), []
        for source in topology.nodes():
            if source != dest:
                frontier.extend(routing(None, source, dest))
        while frontier:
            channel = frontier.pop()
            if channel in reached:
                continue
            reached.add(channel)
            if channel.dst != dest:
                frontier.extend(routing(channel, channel.dst, dest))
        assert {
            index.channels[ident] for ident in mask_ids(closure.reached[dest_idx])
        } == reached


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t.expect == "certified"], ids=lambda t: t.label
)
def test_certificate_survives_the_object_level_recheck(target):
    """The numbering built on the id closure is re-verified against the
    graph ``routing_cdg`` builds from the routing callable alone."""
    routing = target_routing(target)
    result = check_deadlock_freedom(target.topology, target.routing, target.closure())
    assert result.verdict == PROVED
    assert recheck_numbering_certificate(target.topology, routing, result.certificate)
    assert result.certificate.data["edges"] == len(list(routing_cdg(
        target.topology, routing
    ).edges()))


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t.expect == "refuted"], ids=lambda t: t.label
)
def test_refuted_fixture_witness_is_byte_identical(target):
    """Figure 1 / Figure 4: same cycle, same turns, same example
    destinations as the object-level witness — rendered text equal."""
    expected = find_dependency_cycle(target.topology, target.routing)
    assert expected is not None
    for check in (check_deadlock_freedom, check_livelock_freedom):
        data = check(target.topology, target.routing).certificate.data
        assert data["rendered"] == expected.render()
        assert data["channels"] == [str(ch) for ch in expected.channels]
        assert data["dests"] == [list(dest) for dest in expected.dests]


def test_figure1_witness_is_the_papers_square():
    target = next(t for t in TARGETS if t.label.startswith("fixture:figure1"))
    data = check_deadlock_freedom(target.topology, target.routing).certificate.data
    assert len(data["channels"]) == 4
    assert all(dest is not None for dest in data["dests"])


class TestTableKinds:
    def test_dense_table_is_filled_by_the_closure(self):
        mesh = Mesh2D(4, 4)
        routing = make_routing("xy", mesh)
        compiled = CompiledRoutes(routing)
        closure = compiled.closure()
        assert closure.compiled is compiled
        # Every (node, dest) pair is a source state, so all are visited.
        assert compiled.dense is not None
        assert compiled.filled == 16 * 15
        assert_same_graph(mesh, routing, closure)

    def test_keyed_table_is_filled_by_the_closure(self):
        mesh = Mesh2D(4, 4)
        routing = make_routing("west-first-nonminimal", mesh)
        compiled = CompiledRoutes(routing)
        closure = compiled.closure()
        assert compiled.bykey is not None
        states = sum(bin(mask).count("1") for mask in closure.reached)
        at_dest = sum(
            1
            for dest_idx, mask in enumerate(closure.reached)
            for ident in mask_ids(mask)
            if compiled.index.dest_node_id[ident] == dest_idx
        )
        # One entry per source state plus one per reached in-flight state.
        assert compiled.filled == 16 * 15 + states - at_dest
        assert_same_graph(mesh, routing, closure)

    def test_bare_callable_compiles_like_an_algorithm(self):
        mesh = Mesh2D(4, 4)
        inner = make_routing("negative-first", mesh)

        def route_fn(in_channel, node, dest):
            return inner.route(in_channel, node, dest)

        closure = CompiledRoutes(route_fn, ChannelIndex(mesh)).closure()
        assert_same_graph(mesh, route_fn, closure)

    def test_second_closure_asks_the_algorithm_nothing(self):
        mesh = Mesh2D(4, 4)
        routing = make_routing("west-first-nonminimal", mesh)
        compiled = CompiledRoutes(routing)
        first = compiled.closure()
        filled = compiled.filled
        compiled.route = None  # any further route call would raise
        second = compiled.closure()
        assert compiled.filled == filled
        assert (second.succ, second.reached) == (first.succ, first.reached)
