"""Tests for p-cube routing (Section 5, Figures 11 and 12).

Minimal p-cube is the negative-first turn set on a hypercube; the
nonminimal rule of Figure 12 is :class:`PCubeRouting`.
"""

import pytest

from repro.routing import PCubeRouting, make_routing
from repro.topology import Hypercube, Mesh2D


def route_dims(routing, node, dest):
    """The dimensions an injection at ``node`` is offered."""
    return [ch.direction.dim for ch in routing.route(None, node, dest)]


class TestMinimalPCube:
    @pytest.fixture
    def pcube(self, cube4):
        return make_routing("p-cube", cube4)

    def test_phase_one_clears_ones(self, pcube):
        # R = C & ~D.
        dims = route_dims(pcube, (1, 1, 0, 0), (0, 1, 1, 0))
        assert dims == [0]

    def test_phase_two_sets_zeros(self, pcube):
        # R = 0 -> R = ~C & D.
        dims = route_dims(pcube, (0, 1, 0, 0), (0, 1, 1, 1))
        assert sorted(dims) == [2, 3]

    def test_phase_one_offers_all_clearable(self, pcube):
        dims = route_dims(pcube, (1, 1, 1, 1), (0, 0, 0, 1))
        assert sorted(dims) == [0, 1, 2]

    def test_route_returns_matching_channels(self, pcube, cube4):
        channels = pcube.route(None, (1, 0, 0, 0), (0, 0, 1, 1))
        assert {ch.direction.dim for ch in channels} == {0}
        assert channels[0].dst == (0, 0, 0, 0)

    def test_rejects_mesh(self, mesh44):
        with pytest.raises(ValueError):
            make_routing("p-cube", mesh44)
        with pytest.raises(ValueError):
            PCubeRouting(mesh44)

    def test_is_negative_first_on_a_cube(self, pcube, cube4):
        nf = make_routing("negative-first", cube4)
        assert pcube.restriction.prohibited == nf.restriction.prohibited
        assert pcube.name == "p-cube" and pcube.minimal

    def test_all_pairs_deliver(self, pcube, cube4):
        for src in cube4.nodes():
            for dst in cube4.nodes():
                if src == dst:
                    continue
                node, hops = src, 0
                while node != dst:
                    channels = pcube.route(None, node, dst)
                    assert channels
                    channel = channels[hops % len(channels)]
                    node = channel.dst
                    hops += 1
                assert hops == cube4.distance(src, dst)

    def test_phase_one_before_phase_two(self, pcube):
        # While any 1 -> 0 dimension remains, no 0 -> 1 hop is offered.
        node, dest = (1, 0, 1, 0), (0, 1, 0, 1)
        dims = route_dims(pcube, node, dest)
        assert set(dims) == {0, 2}


class TestNonminimalPCube:
    @pytest.fixture
    def pcube_nm(self, cube4):
        return PCubeRouting(cube4)

    def test_phase_one_extra_choices(self, pcube_nm):
        # Figure 12: phase one may also clear dimensions where d_i = 1.
        node, dest = (1, 1, 0, 0), (0, 1, 1, 0)
        dims = pcube_nm.route_dims(node, dest)
        # Dimension 0 is productive; dimension 1 (c=1, d=1) is the extra.
        assert dims[0] == 0
        assert set(dims) == {0, 1}

    def test_phase_two_identical_to_minimal(self, pcube_nm, cube4):
        minimal = make_routing("p-cube", cube4)
        node, dest = (0, 1, 0, 0), (0, 1, 1, 1)
        assert pcube_nm.route_dims(node, dest) == route_dims(minimal, node, dest)

    def test_extends_the_minimal_choices(self, pcube_nm, cube4):
        # Section 5's "choices" column: the minimal turn set's choices,
        # then the extra nonminimal ones.
        minimal = make_routing("p-cube", cube4)
        node, dest = (1, 1, 0, 0), (0, 1, 1, 0)
        offered = pcube_nm.route_dims(node, dest)
        assert offered[:1] == route_dims(minimal, node, dest) == [0]
        assert len(offered) - 1 == 1

    def test_name_and_turn_set(self, pcube_nm, cube4):
        assert pcube_nm.name == "p-cube-nonminimal" and not pcube_nm.minimal
        assert pcube_nm.restriction.prohibited == (
            make_routing("p-cube", cube4).restriction.prohibited
        )

    def test_all_pairs_deliver_even_with_detours(self, pcube_nm, cube4):
        # Always taking the last offered dimension (the most detouring
        # choice) must still reach the destination: phase-one hops strictly
        # clear ones, so the walk terminates.
        for src in list(cube4.nodes())[::3]:
            for dst in list(cube4.nodes())[::3]:
                if src == dst:
                    continue
                node, hops = src, 0
                while node != dst:
                    channels = pcube_nm.route(None, node, dst)
                    channel = channels[-1]
                    node = channel.dst
                    hops += 1
                    assert hops <= 2 * cube4.n_dims
