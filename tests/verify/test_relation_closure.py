"""A turn table closes on its router's compile exactly as by the walk.

:meth:`repro.sim.ids.CompiledRoutes.closure` closes a table compiled
from a :class:`~repro.routing.turn_table.TurnRestrictionRouting` on the
router's own offers, for every destination at once; any other table is
closed by a walk of its states, one ``route`` call each.  The oracle
here is that walk over the same router wrapped in a bare ``RouteFn``:
the masks, every entry in order, the entry count and the
:class:`~repro.sim.ids.ReachRelation` built on either must agree, on
every 2D candidate of the synthesiser (the cyclic ones too, in both
modes), every registry turn table on four topologies and Figure 4's
nonminimal fixture.  A table derived from a healthy one (a degraded
table) holds narrower entries than its router's, so it must be closed
on its own entries.
"""

from __future__ import annotations

import pytest

from repro.core.restrictions import TurnRestriction
from repro.resilience import FaultController, FaultSchedule
from repro.resilience.schedule import FAIL, FaultEvent
from repro.routing import TurnRestrictionRouting, available_algorithms, make_routing
from repro.sim.deadlock import figure4_routing
from repro.sim.ids import ChannelIndex, CompiledRoutes, ReachRelation
from repro.synth.enumeration import enumerate_candidates
from repro.topology import Mesh2D, parse_topology
from repro.verify import default_targets

CANDIDATES_2D, _ = enumerate_candidates(2)


def bare(routing):
    """``routing.route`` as a bare ``RouteFn``, compiled to the same
    table layout: a table of it is closed by the walk."""

    def route(in_channel, node, dest):
        return routing.route(in_channel, node, dest)

    route.uses_in_channel = routing.uses_in_channel
    return route


def entries_of(table):
    """``table``'s own entries as a bare ``RouteFn``."""
    index = table.index

    def route(in_channel, node, dest):
        if in_channel is None:
            front = index.inj_base + index.node_id[node]
        else:
            front = index.cid[in_channel]
        return [index.channels[out] for out in table.lookup(front, index.node_id[dest])]

    route.uses_in_channel = table.dense is None
    return route


def entries(table):
    if table.dense is not None:
        return list(table.dense)
    return sorted(table.bykey.items())


def refuse(in_channel, node, dest):
    raise AssertionError(f"the closure asked for ({in_channel}, {node}, {dest})")


def assert_same_relation(got, want):
    assert got.held == want.held
    assert got.accepting == want.accepting
    assert got.offers == want.offers
    assert got.order == want.order
    assert got.feeders == want.feeders
    count = len(got.held)
    blocked = frozenset(range(0, count, 7))
    for seeds, cut in ((got.accepting, frozenset()), (got.accepting, blocked),
                       (got.dead_ends(), frozenset())):
        assert got.fixpoint(seeds, cut) == want.fixpoint(seeds, cut)
    assert got.dead_ends() == want.dead_ends()


def assert_closes_like_the_walk(routing):
    """The router's table closes on its compile, and agrees with the walk."""
    topology = routing.topology
    compiled = CompiledRoutes(routing)
    # Any route call would raise: the compile is read, not the router.
    compiled.route = refuse
    closure = compiled.closure()
    walked = CompiledRoutes(bare(routing), ChannelIndex(topology))
    oracle = walked.closure()
    assert closure.succ == oracle.succ
    assert closure.reached == oracle.reached
    assert compiled.filled == walked.filled
    assert (compiled.dense is None) == (walked.dense is None)
    assert entries(compiled) == entries(walked)
    assert_same_relation(compiled.reach_relation(), ReachRelation(oracle))
    # A second closure fills nothing more and finds the same relation.
    again = compiled.closure()
    assert (again.succ, again.reached) == (closure.succ, closure.reached)
    assert compiled.filled == walked.filled
    return closure


def candidate_cases():
    return [(index, minimal) for index in range(len(CANDIDATES_2D))
            for minimal in (True, False)]


@pytest.mark.parametrize("index,minimal", candidate_cases(),
                         ids=lambda value: str(value))
def test_every_2d_candidate_closes_like_the_walk(index, minimal):
    restriction = TurnRestriction(2, frozenset(CANDIDATES_2D[index]))
    assert_closes_like_the_walk(
        TurnRestrictionRouting(parse_topology("mesh:4x4"), restriction, minimal=minimal))


def test_the_candidates_hold_cyclic_relations():
    # Four of the sixteen deadlock, so ids on a cycle are settled by the
    # worklist, not in Kahn's order.
    cyclic = 0
    for prohibited in CANDIDATES_2D:
        routing = TurnRestrictionRouting(
            parse_topology("mesh:4x4"), TurnRestriction(2, frozenset(prohibited)))
        cyclic += bool(CompiledRoutes(routing).reach_relation().feeders)
    assert cyclic == 4


def registry_cases():
    return [
        (spec, name)
        for spec in ("mesh:8x8", "mesh:3x3x3", "cube:4", "mesh:5x4")
        for name in available_algorithms(parse_topology(spec))
        if isinstance(make_routing(name, parse_topology(spec)), TurnRestrictionRouting)
    ]


def test_the_registry_cases_hold_both_modes_and_every_family():
    cases = registry_cases()
    assert {spec for spec, _ in cases} == {"mesh:8x8", "mesh:3x3x3", "cube:4", "mesh:5x4"}
    assert {"xy", "west-first-nonminimal", "p-cube", "abopl-nonminimal"} <= {
        name for _, name in cases}


@pytest.mark.parametrize("spec,name", registry_cases(), ids=lambda value: str(value))
def test_every_registry_turn_table_closes_like_the_walk(spec, name):
    assert_closes_like_the_walk(make_routing(name, parse_topology(spec)))


def test_figure_4s_nonminimal_fixture_closes_like_the_walk():
    routing = figure4_routing(Mesh2D(5, 5))
    assert not routing.minimal
    assert_closes_like_the_walk(routing)
    assert CompiledRoutes(routing).reach_relation().feeders


class FirstOfferInjection(TurnRestrictionRouting):
    """A turn table that injects on its first offer only.  Its other
    outputs are held only for what arrivals pass on, where a plain turn
    table already offers each of them at injection: its closure needs
    the fixpoint, not only the seeds."""

    def _compile(self):
        index = super()._compile()
        self._injections = [offers[:1] for offers in self._injections]
        return index


@pytest.mark.parametrize("index", range(len(CANDIDATES_2D)))
def test_what_arrivals_pass_on_is_held(index):
    restriction = TurnRestriction(2, frozenset(CANDIDATES_2D[index]))
    routing = FirstOfferInjection(parse_topology("mesh:4x4"), restriction, minimal=False)
    closure = assert_closes_like_the_walk(routing)
    injections, _ = routing.offers_on(closure.compiled.index)
    seeds = [0] * len(closure.succ)
    for node, offers in enumerate(injections):
        for out, mask in offers:
            seeds[out] |= mask & ~(1 << node)
    held = closure.compiled.reach_relation().held
    assert any(mask & ~seed for mask, seed in zip(held, seeds))


def test_off_its_own_ids_the_table_is_walked():
    # A router's compile numbers its own topology's channels: on another
    # index (a faulted network's) it is not read.
    faulted = next(t for t in default_targets() if "+faults2@seed5" in t.label)
    assert faulted.routing.offers_on(ChannelIndex(faulted.topology)) is None
    assert faulted.routing.offers_on(ChannelIndex(faulted.routing.topology)) is not None


# -- a degraded table reads its own entries ----------------------------------


def assert_reads_its_own_entries(derived, healthy):
    """``derived``'s closure and relation are its entries', not its
    router's compile (which is ``healthy``'s relation)."""
    before = entries(derived)
    filled = derived.filled
    closure = derived.closure()
    assert entries(derived) == before and derived.filled == filled
    walked = CompiledRoutes(entries_of(derived), derived.index)
    oracle = walked.closure()
    assert (closure.succ, closure.reached) == (oracle.succ, oracle.reached)
    assert_same_relation(derived.reach_relation(), ReachRelation(oracle))
    # The restriction is narrower than the router: reading the compile
    # would find the healthy relation instead.
    whole = healthy.closure()
    assert (closure.succ, closure.reached) != (whole.succ, whole.reached)
    assert derived.reach_relation().held != healthy.reach_relation().held


def test_the_faulted_verify_target_reads_its_own_table():
    target = next(t for t in default_targets() if "+faults2@seed5" in t.label)
    assert target.label == "mesh:5x5+faults2@seed5/west-first-nonminimal"
    derived = target.table
    assert derived is not None and derived.parent is not None
    assert isinstance(derived.routing, TurnRestrictionRouting)
    assert_reads_its_own_entries(derived, derived.parent)


def test_a_fault_controllers_degraded_table_reads_its_own_entries():
    mesh = Mesh2D(5, 5)
    routing = make_routing("west-first-nonminimal", mesh)
    healthy = CompiledRoutes(routing)
    failed = [channel for channel in mesh.channels() if channel.src == (2, 2)][:2]
    controller = FaultController(
        FaultSchedule([FaultEvent(10, FAIL, channel) for channel in failed]))
    controller.bind(routing, mesh, healthy)
    controller.advance(10)
    derived = controller.current_compiled
    assert derived is not None and derived.parent is healthy
    assert derived.routing is routing
    assert_reads_its_own_entries(derived, healthy)
