"""Tests for channel dependency graphs and the Dally-Seitz deadlock test."""

import pytest

from repro.core.channel_graph import (
    maximal_reversal_extension,
    restriction_is_deadlock_free,
    routing_cdg,
)
from repro.core.directions import EAST, NORTH, SOUTH, WEST
from repro.core.restrictions import (
    TurnRestriction,
    figure4_restriction,
    fully_adaptive,
    negative_first_restriction,
    north_last_restriction,
    west_first_restriction,
    xy_restriction,
)
from repro.core.turns import Turn
from repro.routing import make_routing
from repro.synth import enumerate_candidates
from repro.topology import Hypercube, Mesh, Mesh2D, Torus
from tests.core.cdg_oracle import (
    find_dependency_cycle,
    is_deadlock_free,
    turn_cdg,
    turn_cdg_is_acyclic,
)


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

    @pytest.mark.parametrize(
        "topology, restriction",
        [
            *(
                (Mesh2D(4, 4), restriction)
                for restriction in (
                    xy_restriction(),
                    west_first_restriction(),
                    north_last_restriction(),
                    fully_adaptive(2),
                    figure4_restriction(),
                    negative_first_restriction(2).with_reversals([Turn(EAST, WEST)]),
                )
            ),
            (Mesh2D(5, 3), negative_first_restriction(2)),
            (Mesh((3, 3, 3)), negative_first_restriction(3)),
            (Mesh((3, 3, 3)), fully_adaptive(3)),
            (Hypercube(4), negative_first_restriction(4)),
            (Torus(4, 2), negative_first_restriction(2)),
            (Torus(4, 2), fully_adaptive(2)),
        ],
    )
    def test_decider_matches_object_oracle(self, topology, restriction):
        assert restriction_is_deadlock_free(topology, restriction) == (
            turn_cdg_is_acyclic(topology, restriction)
        )

    @pytest.mark.parametrize(
        "topology", [Torus(3, 2), Torus(4, 2), Mesh2D(4, 4)],
        ids=["torus:3x2", "torus:4x2", "mesh:4x4"],
    )
    def test_step4_accepts_the_same_2d_candidates_on_tori(self, topology):
        # Torus labels a wraparound by how its coordinate moves, so rings
        # close only through reversals: Step 4 decides tori as it does
        # meshes, candidate for candidate.
        candidates, _ = enumerate_candidates(2)
        verdicts = [
            restriction_is_deadlock_free(topology, TurnRestriction(2, prohibited))
            for prohibited in candidates
        ]
        mesh = Mesh2D(4, 4)
        assert verdicts == [
            restriction_is_deadlock_free(mesh, TurnRestriction(2, prohibited))
            for prohibited in candidates
        ]
        assert len(candidates) == 16 and sum(verdicts) == 12

    def test_vertex_count_matches_channels(self, mesh44):
        graph = turn_cdg(mesh44, xy_restriction())
        assert len(graph.vertices()) == mesh44.num_channels

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
            assert b in loose.successors(a)

    def test_xy_routing_cdg_edge_count_positive(self, mesh44):
        graph = routing_cdg(mesh44, make_routing("xy", mesh44))
        assert next(graph.edges(), None) is not None


class TestStep6Reversals:
    """Step 6: admit as many 180-degree turns as deadlock freedom allows."""

    def test_extension_is_maximal_for_negative_first(self):
        extended = maximal_reversal_extension(Mesh2D(3, 3), negative_first_restriction(2))
        # Negative-first admits both negative-to-positive reversals.
        assert extended.allowed_reversals == {Turn(WEST, EAST), Turn(SOUTH, NORTH)}

    def test_extension_never_adds_unsafe_pair(self):
        mesh = Mesh2D(3, 3)
        candidates, _ = enumerate_candidates(2)
        for prohibited in candidates:
            restriction = TurnRestriction(2, prohibited)
            if not restriction_is_deadlock_free(mesh, restriction):
                continue
            extended = maximal_reversal_extension(mesh, restriction)
            assert restriction_is_deadlock_free(mesh, extended)
            # Adding a reversal and its inverse together always cycles, so
            # at most one of each opposite pair may be present.
            reversals = extended.allowed_reversals
            for turn in reversals:
                assert Turn(turn.to, turn.frm) not in reversals

    def test_cyclic_restriction_admits_nothing(self):
        extended = maximal_reversal_extension(Mesh2D(3, 3), figure4_restriction())
        assert extended.allowed_reversals == figure4_restriction().allowed_reversals

    def test_keeps_the_name(self):
        extended = maximal_reversal_extension(Mesh2D(4, 4), west_first_restriction())
        assert extended.name == west_first_restriction().name
        assert Turn(WEST, EAST) in extended.allowed_reversals

    def test_same_reversals_on_every_mesh_size(self):
        """Every deadlock-free 2D candidate gets one reversal set, whether
        Step 6 runs on the 3x3 validation mesh or a larger target."""
        meshes = [Mesh2D(3, 3), Mesh2D(4, 4), Mesh2D(8, 8)]
        candidates, _ = enumerate_candidates(2)
        free = 0
        for prohibited in candidates:
            restriction = TurnRestriction(2, prohibited)
            if not restriction_is_deadlock_free(meshes[0], restriction):
                continue
            free += 1
            reversal_sets = {
                maximal_reversal_extension(mesh, restriction).allowed_reversals
                for mesh in meshes
            }
            assert len(reversal_sets) == 1, sorted(map(str, prohibited))
        assert free == 12
