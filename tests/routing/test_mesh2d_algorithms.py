"""Behavioral tests for west-first, north-last, and negative-first routing."""

import pytest

from repro.core.directions import EAST, NORTH, SOUTH, WEST
from repro.routing import make_routing
from repro.topology import Mesh, Mesh2D


def walk(algorithm, src, dest, pick=0):
    """Follow the routing relation, always taking candidate ``pick``."""
    topology = algorithm.topology
    node, in_ch, hops = src, None, []
    while node != dest:
        candidates = algorithm.route(in_ch, node, dest)
        assert candidates, (node, dest)
        channel = candidates[min(pick, len(candidates) - 1)]
        hops.append(channel.direction)
        node, in_ch = channel.dst, channel
        assert len(hops) <= 4 * topology.num_nodes, "walk did not terminate"
    return hops


class TestWestFirst:
    @pytest.fixture
    def wf(self, mesh88):
        return make_routing("west-first", mesh88)

    def test_westward_destination_forces_west(self, wf):
        assert wf.route(None, (5, 5), (2, 7)) == (
            wf.topology.channel_in_direction((5, 5), WEST),
        )

    def test_west_hops_all_come_first(self, wf):
        hops = walk(wf, (6, 2), (1, 6), pick=0)
        west_positions = [i for i, d in enumerate(hops) if d == WEST]
        other_positions = [i for i, d in enumerate(hops) if d != WEST]
        assert max(west_positions) < min(other_positions)

    def test_adaptive_when_not_west(self, wf):
        candidates = wf.route(None, (1, 1), (4, 5))
        assert {ch.direction for ch in candidates} == {EAST, NORTH}

    def test_adaptive_south_east(self, wf):
        candidates = wf.route(None, (1, 5), (4, 1))
        assert {ch.direction for ch in candidates} == {EAST, SOUTH}

    def test_every_walk_is_minimal(self, wf):
        mesh = wf.topology
        for src in [(0, 0), (7, 7), (3, 4), (6, 1)]:
            for dst in [(0, 7), (7, 0), (2, 2), (5, 6)]:
                if src == dst:
                    continue
                for pick in (0, 1):
                    hops = walk(wf, src, dst, pick)
                    assert len(hops) == mesh.distance(src, dst)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            make_routing("west-first", Mesh((3, 3, 3)))


class TestNorthLast:
    @pytest.fixture
    def nl(self, mesh88):
        return make_routing("north-last", mesh88)

    def test_north_hops_all_come_last(self, nl):
        hops = walk(nl, (2, 1), (6, 6), pick=0)
        north_positions = [i for i, d in enumerate(hops) if d == NORTH]
        other_positions = [i for i, d in enumerate(hops) if d != NORTH]
        assert min(north_positions) > max(other_positions)

    def test_adaptive_when_not_north(self, nl):
        candidates = nl.route(None, (3, 5), (6, 2))
        assert {ch.direction for ch in candidates} == {EAST, SOUTH}

    def test_north_excluded_while_other_dims_remain(self, nl):
        candidates = nl.route(None, (3, 3), (6, 6))
        assert {ch.direction for ch in candidates} == {EAST}

    def test_pure_north_allowed(self, nl):
        candidates = nl.route(None, (3, 3), (3, 6))
        assert {ch.direction for ch in candidates} == {NORTH}

    def test_every_walk_is_minimal(self, nl):
        mesh = nl.topology
        for src in [(0, 0), (7, 7), (3, 4)]:
            for dst in [(0, 7), (7, 0), (5, 6)]:
                if src == dst:
                    continue
                for pick in (0, 1):
                    hops = walk(nl, src, dst, pick)
                    assert len(hops) == mesh.distance(src, dst)


class TestNegativeFirst:
    @pytest.fixture
    def nf(self, mesh88):
        return make_routing("negative-first", mesh88)

    def test_negative_hops_precede_positive(self, nf):
        hops = walk(nf, (5, 2), (2, 6), pick=0)
        negatives = [i for i, d in enumerate(hops) if d.is_negative]
        positives = [i for i, d in enumerate(hops) if d.is_positive]
        assert max(negatives) < min(positives)

    def test_fully_adaptive_all_negative(self, nf):
        candidates = nf.route(None, (5, 5), (2, 2))
        assert {ch.direction for ch in candidates} == {WEST, SOUTH}

    def test_fully_adaptive_all_positive(self, nf):
        candidates = nf.route(None, (2, 2), (5, 5))
        assert {ch.direction for ch in candidates} == {EAST, NORTH}

    def test_single_path_for_mixed(self, nf):
        # Mixed displacement: the negative dimension resolves first.
        candidates = nf.route(None, (2, 5), (5, 2))
        assert {ch.direction for ch in candidates} == {SOUTH}

    def test_works_on_3d_mesh(self, mesh3d):
        nf = make_routing("negative-first", mesh3d)
        candidates = nf.route(None, (2, 2, 0), (0, 0, 2))
        assert {ch.direction for ch in candidates} == {
            d for d in (ch.direction for ch in candidates)
        }
        dims = {ch.direction.dim for ch in candidates}
        assert dims == {0, 1}
        assert all(ch.direction.is_negative for ch in candidates)

    def test_every_walk_is_minimal(self, nf):
        mesh = nf.topology
        for src in [(0, 0), (7, 7), (3, 4)]:
            for dst in [(0, 7), (7, 0), (5, 6)]:
                if src == dst:
                    continue
                for pick in (0, 1):
                    hops = walk(nf, src, dst, pick)
                    assert len(hops) == mesh.distance(src, dst)
