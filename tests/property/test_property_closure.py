"""Property-based exactness of the id closure on degraded configurations.

``tests/verify/test_closure_equivalence.py`` pins the 42 default
targets; here the same equality — the closure of the compiled int-id
table against :func:`repro.core.channel_graph.routing_cdg` — is drawn
across meshes, algorithms and 1-8 failed channels, for routings on the
degraded topology of both kinds from ``tests/sim/degraded.py`` (the
healthy decisions filtered; the turn set re-made on the degraded
topology, by look-ahead when minimal), and always compiled against the
*healthy* topology's channel index, as a fault's tables are.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel_graph import routing_cdg
from repro.core.digraph import mask_ids
from repro.routing import make_routing
from repro.sim.ids import ChannelIndex, CompiledRoutes
from repro.topology import Mesh2D
from repro.topology.faults import FaultyTopology
from repro.verify import check_deadlock_freedom

from tests.sim.degraded import FilteredRouting, faulted_routing

ALGORITHMS = [
    "xy", "west-first", "north-last", "negative-first",
    "west-first-nonminimal", "negative-first-nonminimal",
]

configs = st.fixed_dictionaries({
    "rows": st.integers(3, 5),
    "cols": st.integers(3, 5),
    "name": st.sampled_from(ALGORITHMS),
    "failed": st.integers(1, 8),
    "fault_seed": st.integers(0, 2**16),
    "rebuild": st.booleans(),
})


def _degraded(params):
    mesh = Mesh2D(params["cols"], params["rows"])
    failed = frozenset(
        random.Random(params["fault_seed"]).sample(mesh.channels(), params["failed"])
    )
    degraded = FaultyTopology(mesh, failed)
    if params["rebuild"]:
        routing = faulted_routing(make_routing(params["name"], mesh), failed, mesh)
    else:
        routing = FilteredRouting(make_routing(params["name"], mesh), failed, degraded)
    return mesh, degraded, routing, failed


@settings(max_examples=60, deadline=None)
@given(params=configs)
def test_closure_equals_routing_cdg_on_degraded_configurations(params):
    mesh, degraded, routing, failed = _degraded(params)
    index = ChannelIndex(mesh)
    closure = CompiledRoutes(routing, index).closure()
    expected = routing_cdg(degraded, routing)
    got = {
        (index.channels[front], index.channels[out])
        for front, mask in enumerate(closure.succ)
        for out in mask_ids(mask)
    }
    assert expected.vertices() == list(degraded.channels())
    assert got == set(expected.edges())
    # No dead channel is held or requested by any realizable state.
    dead = {index.cid[channel] for channel in failed}
    for front, mask in enumerate(closure.succ):
        assert not (mask and front in dead)
        assert dead.isdisjoint(mask_ids(mask))
    for mask in closure.reached:
        assert dead.isdisjoint(mask_ids(mask))


@settings(max_examples=40, deadline=None)
@given(params=configs)
def test_verdict_on_the_shared_index_matches_a_private_one(params):
    """Proving the run's table (healthy ids) and proving a table compiled
    for the proof alone (degraded ids) give the same verdict and edges."""
    mesh, degraded, routing, _ = _degraded(params)
    adopted = check_deadlock_freedom(
        degraded, routing, CompiledRoutes(routing, ChannelIndex(mesh)).closure()
    )
    private = check_deadlock_freedom(degraded, routing)
    assert adopted.verdict == private.verdict
    assert adopted.certificate.kind == private.certificate.kind
    if adopted.certificate.kind == "channel-numbering":
        assert adopted.certificate.data["edges"] == len(list(routing_cdg(
            degraded, routing
        ).edges()))
        assert adopted.certificate.data == private.certificate.data
