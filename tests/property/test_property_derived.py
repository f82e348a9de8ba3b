"""Property-based exactness of the derived degraded route tables.

The fault controller never builds a degraded routing: it reads each
degraded table off the run's healthy table
(:func:`repro.resilience.controller.degrade`).  Here that derived table
is held to the definition it restricts to (``tests/sim/degraded.py``) —
the healthy decisions filtered, or a nonminimal turn table rebuilt on
the degraded topology — compiled the plain way, through its ``route``,
across drawn fault schedules (1-8 failed channels, with and without
heals) for every registry algorithm of ``mesh:6x6``, ``mesh:8x8``,
``mesh:4x4``, ``mesh:3x3x3``, ``cube:4``, ``torus:4x2``, ``hex:5x5`` and
``oct:5x5``.  After every applied event the two closures must agree on
``succ``, on ``reached`` and on the entry of every realizable state.

The run certifies each derived table by the restriction argument alone
(the healthy numbering, proved once, and a per-entry subset check).  The
exact proof is the oracle here: the derived table's own closure, proved
from scratch by :func:`~repro.verify.check_deadlock_freedom`, must be
deadlock free, and the healthy numbering strictly monotone on its edges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import mask_ids
from repro.resilience import FaultController, FaultSchedule
from repro.routing import available_algorithms, make_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import parse_topology
from repro.topology.faults import FaultyTopology
from repro.verify import PROVED, check_deadlock_freedom
from repro.verify.deadlock import is_monotone

from tests.sim.degraded import degraded_routing

FAMILIES = (
    "mesh:6x6", "mesh:8x8", "mesh:4x4", "mesh:3x3x3", "cube:4", "torus:4x2",
    "hex:5x5", "oct:5x5",
)
CASES = [
    (family, name)
    for family in FAMILIES
    for name in available_algorithms(parse_topology(family))
]

schedules = st.fixed_dictionaries({
    "case": st.sampled_from(CASES),
    "faults": st.integers(1, 8),
    "fault_seed": st.integers(0, 2**16),
    "heal_after": st.sampled_from([None, 7, 40]),
})


def _assert_same_relation(derived, defined):
    """Compare the two closures; returns the derived one."""
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
    return got


@settings(max_examples=60, deadline=None)
@given(params=schedules)
def test_derived_table_equals_the_defined_one(params):
    family, name = params["case"]
    topology = parse_topology(family)
    base = make_routing(name, topology)
    healthy = CompiledRoutes(base)
    schedule = FaultSchedule.random(
        topology, params["faults"], seed=params["fault_seed"], window=(0, 60),
        heal_after=params["heal_after"], require_connected=False,
    )
    controller = FaultController(schedule)
    controller.bind(base, topology, healthy)
    for cycle in sorted({event.cycle for event in schedule}):
        controller.advance(cycle)
        if not controller.failed:
            assert controller.current_compiled is None
            continue
        derived = controller.current_compiled
        # Derived, not compiled: it arrives holding every healthy entry.
        assert len(derived) == len(healthy) > 0
        definition = degraded_routing(base, controller.failed, topology)
        closure = _assert_same_relation(
            derived, CompiledRoutes(definition, healthy.index)
        )
        degraded = FaultyTopology(topology, controller.failed)
        assert check_deadlock_freedom(degraded, base, closure).verdict == PROVED
        assert is_monotone(closure.succ, healthy.numbering)
