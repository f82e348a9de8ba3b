"""Connectivity checker: full delivery proofs and counterexamples."""

from __future__ import annotations

import pytest

from repro.routing import available_algorithms, make_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import Mesh2D
from repro.topology.faults import random_channel_faults
from repro.verify import PROVED, REFUTED, check_connectivity


def faulted(name):
    """``name``'s healthy 5x5 table restricted by the reach rule on the
    seed-5 two-fault set, with the faulted mesh and its closure."""
    mesh = Mesh2D(5, 5)
    faulty = random_channel_faults(mesh, 2, seed=5)
    healthy = CompiledRoutes(make_routing(name, mesh))
    failed = [healthy.index.cid[channel] for channel in faulty.failed]
    table = CompiledRoutes.reach_restricted(healthy, failed)
    return faulty, healthy.routing, table.closure()


class TestProofs:
    def test_every_mesh_algorithm_is_connected(self, mesh44):
        for name in available_algorithms(mesh44):
            result = check_connectivity(mesh44, make_routing(name, mesh44))
            assert result.verdict == PROVED, f"{name}: {result.detail}"

    def test_proof_certificate_counts_pairs(self, mesh44):
        result = check_connectivity(mesh44, make_routing("west-first", mesh44))
        n = len(list(mesh44.nodes()))
        assert result.certificate.kind == "reachable-states"
        assert result.certificate.data["pairs"] == n * (n - 1)
        assert result.certificate.data["dead_ends"] == 0

    def test_the_proof_keeps_no_relation_on_the_table(self, mesh44):
        """Only a fault event keeps the reach relation; the prover reads
        a kept one and otherwise builds one it drops."""
        healthy = CompiledRoutes(make_routing("west-first-nonminimal", mesh44))
        closure = healthy.closure()
        assert check_connectivity(mesh44, healthy.routing, closure).verdict == PROVED
        assert healthy.reverse is None
        relation = healthy.reach_relation()
        assert check_connectivity(mesh44, healthy.routing, closure).verdict == PROVED
        assert healthy.reverse is relation

    def test_nonminimal_routes_around_certifiable_faults(self):
        result = check_connectivity(*faulted("west-first-nonminimal"))
        assert result.verdict == PROVED


class TestRefutations:
    def test_minimal_west_first_on_faulted_mesh_is_refuted(self):
        # Faults on seed 5 cut minimal west-first paths (the nonminimal
        # variant certifies on the same mesh; see above).
        result = check_connectivity(*faulted("west-first"))
        assert result.verdict == REFUTED
        cert = result.certificate
        assert cert.kind == "connectivity-counterexample"
        assert cert.data["unroutable_total"] > 0
        src, dst = cert.data["unroutable_pairs"][0]
        # The counterexample names a concrete source/destination pair.
        assert tuple(src) != tuple(dst)

    def test_dead_end_state_is_reported(self, mesh44):
        class StallAtCenter:
            """Minimal-looking routing that strands packets at (1,1)."""

            name = "stall"
            uses_in_channel = False

            def __call__(self, in_channel, node, dest):
                if node == (1, 1) and dest != (1, 1):
                    return ()
                inner = make_routing("xy", mesh44)
                return inner.route(in_channel, node, dest)

        result = check_connectivity(mesh44, StallAtCenter())
        assert result.verdict == REFUTED
        assert result.certificate.data["unroutable_total"] > 0


@pytest.mark.parametrize("algorithm", ["negative-first-torus", "xy+first-hop-wrap"])
def test_torus_extensions_are_connected(algorithm):
    from repro.topology import Torus

    torus = Torus(4, 2)
    result = check_connectivity(torus, make_routing(algorithm, torus))
    assert result.verdict == PROVED
