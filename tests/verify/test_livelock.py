"""Livelock checker: hop bounds over the acyclic dependency graph."""

from __future__ import annotations

from repro.core.channel_graph import routing_cdg
from repro.routing import make_routing
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.topology import Torus
from repro.verify import PROVED, REFUTED, check_livelock_freedom
from tests.core.cdg_oracle import longest_path


class TestBounds:
    def test_xy_bound_is_the_diameter_path(self, mesh54):
        result = check_livelock_freedom(mesh54, make_routing("xy", mesh54))
        assert result.verdict == PROVED
        cert = result.certificate
        assert cert.kind == "longest-path"
        # A longest dependency chain is at least the diameter's channels
        # ((5-1) + (4-1) hops) and cannot exceed the channel count.
        assert 7 <= cert.data["bound_hops"] <= cert.data["channels"]

    def test_nonminimal_bound_at_least_minimal(self, mesh54):
        minimal = check_livelock_freedom(mesh54, make_routing("west-first", mesh54))
        nonminimal = check_livelock_freedom(
            mesh54, make_routing("west-first-nonminimal", mesh54)
        )
        assert nonminimal.certificate.data["bound_hops"] >= (
            minimal.certificate.data["bound_hops"]
        )

    def test_torus_extension_is_bounded(self):
        torus = Torus(4, 2)
        result = check_livelock_freedom(
            torus, make_routing("negative-first-torus", torus)
        )
        assert result.verdict == PROVED
        assert result.certificate.data["bound_hops"] > 0

    def test_longest_path_is_a_real_channel_sequence(self, mesh44):
        routing = make_routing("west-first", mesh44)
        result = check_livelock_freedom(mesh44, routing)
        path = result.certificate.data["longest_path"]
        # The bound counts channels: one hop per channel in the chain.
        assert len(path) == result.certificate.data["bound_hops"]
        # Each step is a dependency of the object-level graph, and no
        # path of that graph is longer.
        graph = routing_cdg(mesh44, routing)
        edges = {(str(a), str(b)) for a, b in graph.edges()}
        assert all(step in edges for step in zip(path, path[1:]))
        assert len(path) == len(longest_path(graph))


class TestRefutation:
    def test_cyclic_cdg_refutes_with_the_same_witness(self, mesh44):
        routing = unrestricted_adaptive_routing(mesh44)
        result = check_livelock_freedom(mesh44, routing)
        assert result.verdict == REFUTED
        assert result.certificate.kind == "dependency-cycle"
