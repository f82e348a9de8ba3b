"""Tests for channel dependency graphs and the Dally-Seitz deadlock test."""

import pytest

from repro.core.channel_graph import (
    restriction_is_deadlock_free,
    routing_cdg,
    turn_cdg,
)
from repro.core.restrictions import (
    figure4_restriction,
    fully_adaptive,
    negative_first_restriction,
    north_last_restriction,
    west_first_restriction,
    xy_restriction,
)
from repro.routing import make_routing
from repro.topology import Mesh, Mesh2D, Torus
from tests.core.cdg_oracle import find_dependency_cycle, is_deadlock_free


class TestTurnCDG:
    def test_safe_restrictions_acyclic_on_meshes(self, mesh54):
        for restriction in (
            xy_restriction(),
            west_first_restriction(),
            north_last_restriction(),
            negative_first_restriction(2),
        ):
            assert restriction_is_deadlock_free(mesh54, restriction), restriction.name

    def test_fully_adaptive_cyclic(self, mesh44):
        assert not restriction_is_deadlock_free(mesh44, fully_adaptive(2))

    def test_figure4_cyclic(self, mesh44):
        # Figure 4: one prohibited turn per cycle, deadlock still possible.
        assert not restriction_is_deadlock_free(mesh44, figure4_restriction())

    def test_3d_negative_first_acyclic(self, mesh3d):
        assert restriction_is_deadlock_free(mesh3d, negative_first_restriction(3))

    def test_virtual_direction_classification_breaks_torus_rings(self, torus42):
        # Section 4.2 classifies the wraparound leaving the east edge as a
        # channel *to the west*, so continuing "straight" around a ring is
        # a 180-degree reversal, which safe restrictions prohibit — the
        # classification itself breaks the ring cycles at the turn level.
        assert restriction_is_deadlock_free(torus42, negative_first_restriction(2))
        assert restriction_is_deadlock_free(torus42, xy_restriction())

    def test_torus_still_cyclic_without_restriction(self, torus42):
        assert not restriction_is_deadlock_free(torus42, fully_adaptive(2))

    def test_vertex_count_matches_channels(self, mesh44):
        graph = turn_cdg(mesh44, xy_restriction())
        assert graph.num_vertices == mesh44.num_channels

    def test_xy_dependencies_never_leave_y(self, mesh44):
        graph = turn_cdg(mesh44, xy_restriction())
        for a, b in graph.edges():
            # Once in dimension 1, xy routing stays in dimension 1.
            if a.direction.dim == 1:
                assert b.direction.dim == 1


class TestRoutingCDG:
    @pytest.mark.parametrize(
        "name",
        ["xy", "west-first", "north-last", "negative-first", "abonf", "abopl"],
    )
    def test_mesh_algorithms_deadlock_free(self, mesh54, name):
        assert is_deadlock_free(mesh54, make_routing(name, mesh54))

    @pytest.mark.parametrize(
        "name",
        [
            "west-first-nonminimal",
            "north-last-nonminimal",
            "negative-first-nonminimal",
        ],
    )
    def test_nonminimal_mesh_algorithms_deadlock_free(self, mesh44, name):
        assert is_deadlock_free(mesh44, make_routing(name, mesh44))

    @pytest.mark.parametrize("name", ["e-cube", "p-cube", "p-cube-nonminimal"])
    def test_hypercube_algorithms_deadlock_free(self, cube4, name):
        assert is_deadlock_free(cube4, make_routing(name, cube4))

    @pytest.mark.parametrize(
        "name",
        ["negative-first-torus", "xy+first-hop-wrap", "negative-first+first-hop-wrap"],
    )
    def test_torus_algorithms_deadlock_free(self, torus42, name):
        assert is_deadlock_free(torus42, make_routing(name, torus42))

    def test_torus_algorithms_deadlock_free_k5(self):
        torus = Torus(5, 2)
        for name in ("negative-first-torus", "xy+first-hop-wrap"):
            assert is_deadlock_free(torus, make_routing(name, torus))

    def test_3d_mesh_algorithms_deadlock_free(self, mesh3d):
        for name in ("dimension-order", "negative-first", "abonf", "abopl"):
            assert is_deadlock_free(mesh3d, make_routing(name, mesh3d))

    def test_cycle_witness_for_unsafe_routing(self, mesh44):
        from repro.sim.deadlock import unrestricted_adaptive_routing

        cycle = find_dependency_cycle(mesh44, unrestricted_adaptive_routing(mesh44))
        assert cycle is not None
        # The witness must be a genuine chain of adjacent channels.
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert a.dst == b.src

    def test_routing_cdg_subset_of_turn_cdg(self, mesh44):
        # The exact dependency graph of a minimal algorithm is contained
        # in the turn-level over-approximation of its restriction.
        algorithm = make_routing("west-first", mesh44)
        exact = routing_cdg(mesh44, algorithm)
        loose = turn_cdg(mesh44, west_first_restriction())
        for a, b in exact.edges():
            assert loose.has_edge(a, b)

    def test_xy_routing_cdg_edge_count_positive(self, mesh44):
        graph = routing_cdg(mesh44, make_routing("xy", mesh44))
        assert graph.num_edges > 0
