"""The id-level deadlock decider agrees with the object-level oracle.

:func:`repro.verify.deadlock.closure_dependencies` decides a relation on
the closure's ``succ`` masks alone: one Kahn pass numbers it, and only a
cyclic one is searched breadth-first for a shortest cycle.
``tests/core/cdg_oracle.py`` decides the same relation on the
:class:`~repro.core.digraph.Digraph` that
:func:`~repro.core.channel_graph.routing_cdg` builds from the routing
callable.  On the 42 default targets, the 16 ``mesh:4x4`` synthesis
candidates and the 120 ``mesh:3x3x3`` class representatives, the two
must agree on the verdict, the witness length and the livelock bound,
and every witness and numbering the prover emits must check out on its
own terms.
"""

import pytest

from repro.core.channel_graph import routing_cdg
from repro.core.digraph import mask_ids
from repro.synth.certify import candidate_target
from repro.synth.enumeration import enumerate_candidates
from repro.synth.symmetry import classify_candidates
from repro.topology.spec import parse_topology
from repro.verify import (
    PROVED,
    REFUTED,
    check_deadlock_freedom,
    check_livelock_freedom,
    default_targets,
    recheck_numbering_certificate,
)
from repro.verify.deadlock import closure_dependencies
from tests.core.cdg_oracle import longest_path, shortest_cycle
from tests.sim.degraded import target_routing


def _synth_targets(spec, representatives):
    topology = parse_topology(spec)
    candidates, _ = enumerate_candidates(topology.n_dims)
    if representatives:
        candidates = [
            cls.representative
            for cls in classify_candidates(candidates, topology.n_dims)
        ]
    return [candidate_target(topology, spec, prohibited) for prohibited in candidates]


TARGETS = (
    default_targets()
    + _synth_targets("mesh:4x4", representatives=False)
    + _synth_targets("mesh:3x3x3", representatives=True)
)


def test_the_target_set_is_the_one_described():
    assert len(TARGETS) == 42 + 16 + 120


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_id_decider_agrees_with_the_oracle(target):
    topology, routing = target.topology, target.routing
    closure = target.closure()
    dependencies = closure_dependencies(closure)
    graph = routing_cdg(topology, target_routing(target))
    oracle_cycle = shortest_cycle(graph)

    deadlock = check_deadlock_freedom(topology, routing, closure, dependencies)
    livelock = check_livelock_freedom(topology, routing, closure, dependencies)
    if oracle_cycle is None:
        assert dependencies.witness is None
        assert deadlock.verdict == livelock.verdict == PROVED
        assert recheck_numbering_certificate(
            topology, target_routing(target), deadlock.certificate
        )
        assert deadlock.certificate.data["edges"] == len(list(graph.edges()))
        assert livelock.certificate.data["bound_hops"] == len(longest_path(graph))
        return

    witness = dependencies.witness
    assert dependencies.numbering is None
    assert deadlock.verdict == livelock.verdict == REFUTED
    assert len(witness) == len(oracle_cycle)
    # A closed walk of ``succ`` edges, each realized by its listed
    # destination through the compiled table.
    compiled = closure.compiled
    index = compiled.index
    for position, channel in enumerate(witness.channels):
        front = index.cid[channel]
        out = index.cid[witness.channels[(position + 1) % len(witness)]]
        assert out in mask_ids(closure.succ[front])
        dest = witness.dests[position]
        assert dest is not None
        dest_idx = index.node_id[dest]
        assert closure.reached[dest_idx] >> front & 1
        assert out in compiled.lookup(front, dest_idx)
