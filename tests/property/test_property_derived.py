"""Property-based exactness of the derived degraded route tables.

The fault controller never asks a degraded routing for its decisions: it
reads each degraded table off the run's healthy table
(:meth:`repro.sim.ids.CompiledRoutes.restricted`).  Here that derived
table is held to the definition it restricts to — the same routing
compiled the plain way, through its ``route`` — across drawn fault
schedules (1-8 failed channels on ``mesh:6x6`` and ``mesh:8x8``, with
and without heals) for every algorithm ``build_controller`` degrades, in
both modes: ``DegradedRouting`` filtering the healthy decisions, and the
nonminimal turn tables rebuilt by name on the degraded topology.  After
every applied event the two closures must agree on ``succ``, on
``reached`` and on the entry of every realizable state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import FaultController, FaultSchedule
from repro.resilience.controller import DegradedRouting
from repro.routing import make_routing
from repro.sim.ids import CompiledRoutes, mask_ids
from repro.topology import Mesh2D
from repro.topology.faults import FaultyTopology

FILTERED = [
    "xy", "yx", "dimension-order", "west-first", "north-last",
    "negative-first", "abonf", "abopl",
]
REBUILT = [
    "west-first-nonminimal", "north-last-nonminimal",
    "negative-first-nonminimal", "abonf-nonminimal", "abopl-nonminimal",
]

schedules = st.fixed_dictionaries({
    "radix": st.sampled_from([6, 8]),
    "name": st.sampled_from(FILTERED + REBUILT),
    "faults": st.integers(1, 8),
    "fault_seed": st.integers(0, 2**16),
    "heal_after": st.sampled_from([None, 7, 40]),
})


def _definition(name, mesh, base, failed):
    degraded = FaultyTopology(mesh, failed)
    if name in REBUILT:
        return make_routing(name, degraded)
    return DegradedRouting(base, failed, degraded)


def _assert_same_relation(derived, defined):
    got, want = derived.closure(), defined.closure()
    assert got.succ == want.succ
    assert got.reached == want.reached
    index = defined.index
    head = index.dest_node_id
    injections = range(index.inj_base, index.ej_base)
    for dest, reached in enumerate(want.reached):
        for front in [*injections, *mask_ids(reached)]:
            if head[front] != dest:
                assert derived.lookup(front, dest) == defined.lookup(front, dest)


@settings(max_examples=30, deadline=None)
@given(params=schedules)
def test_derived_table_equals_the_defined_one(params):
    mesh = Mesh2D(params["radix"], params["radix"])
    name = params["name"]
    base = make_routing(name, mesh)
    healthy = CompiledRoutes(base)
    schedule = FaultSchedule.random(
        mesh, params["faults"], seed=params["fault_seed"], window=(0, 60),
        heal_after=params["heal_after"], require_connected=False,
    )
    factory = (lambda degraded: make_routing(name, degraded)) if name in REBUILT else None
    controller = FaultController(schedule, routing_factory=factory, recertify=False)
    controller.bind(base, mesh, healthy)
    for cycle in sorted({event.cycle for event in schedule}):
        controller.advance(cycle)
        if not controller.failed:
            assert controller.current_compiled is None
            continue
        derived = controller.current_compiled
        # Derived, not compiled: it arrives holding every healthy entry.
        assert len(derived) == len(healthy) > 0
        definition = _definition(name, mesh, base, controller.failed)
        _assert_same_relation(derived, CompiledRoutes(definition, healthy.index))
