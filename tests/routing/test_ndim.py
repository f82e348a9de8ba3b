"""Tests for the n-dimensional ABONF and ABOPL algorithms (Section 4.1)."""

import pytest

from repro.routing import make_routing
from repro.topology import Hypercube, Mesh, Mesh2D


class TestABONF:
    @pytest.fixture
    def abonf(self, mesh3d):
        return make_routing("abonf", mesh3d)

    def test_first_phase_negative_low_dims(self, abonf):
        # Needs -0, -1, and +2: phase one serves -0 and -1 only.
        candidates = abonf.route(None, (2, 2, 0), (0, 0, 2))
        assert {(c.direction.dim, c.direction.sign) for c in candidates} == {
            (0, -1), (1, -1),
        }

    def test_last_dim_negative_is_second_phase(self, abonf):
        # Needs -2 and +0: dimension n-1's negative hop is second phase,
        # so both are offered together.
        candidates = abonf.route(None, (0, 1, 2), (2, 1, 0))
        assert {(c.direction.dim, c.direction.sign) for c in candidates} == {
            (0, 1), (2, -1),
        }

    def test_2d_matches_west_first(self, mesh54):
        abonf = make_routing("abonf", mesh54)
        wf = make_routing("west-first", mesh54)
        for src in mesh54.nodes():
            for dst in mesh54.nodes():
                if src != dst:
                    assert set(abonf.route(None, src, dst)) == set(
                        wf.route(None, src, dst)
                    ), (src, dst)

    def test_works_on_hypercube(self):
        cube = Hypercube(4)
        abonf = make_routing("abonf", cube)
        candidates = abonf.route(None, (1, 1, 0, 0), (0, 0, 1, 1))
        dims = {(c.direction.dim, c.direction.sign) for c in candidates}
        assert dims == {(0, -1), (1, -1)}


class TestABOPL:
    @pytest.fixture
    def abopl(self, mesh3d):
        return make_routing("abopl", mesh3d)

    def test_first_phase_includes_positive_dim0(self, abopl):
        # Needs +0, -1, +2: +0 and -1 are first phase.
        candidates = abopl.route(None, (0, 2, 0), (2, 0, 2))
        assert {(c.direction.dim, c.direction.sign) for c in candidates} == {
            (0, 1), (1, -1),
        }

    def test_second_phase_adaptive_among_positives(self, abopl):
        # Only +1 and +2 remain: both offered (the second phase is
        # adaptive among the remaining positive directions).
        candidates = abopl.route(None, (1, 0, 0), (1, 2, 2))
        assert {(c.direction.dim, c.direction.sign) for c in candidates} == {
            (1, 1), (2, 1),
        }

    def test_2d_matches_north_last(self, mesh54):
        abopl = make_routing("abopl", mesh54)
        nl = make_routing("north-last", mesh54)
        for src in mesh54.nodes():
            for dst in mesh54.nodes():
                if src != dst:
                    assert set(abopl.route(None, src, dst)) == set(
                        nl.route(None, src, dst)
                    ), (src, dst)


class TestDelivery:
    @pytest.mark.parametrize("name", ["abonf", "abopl"])
    def test_all_pairs_deliver_minimally(self, mesh3d, name):
        algorithm = make_routing(name, mesh3d)
        for src in mesh3d.nodes():
            for dst in mesh3d.nodes():
                if src == dst:
                    continue
                node, in_ch, hops = src, None, 0
                while node != dst:
                    candidates = algorithm.route(in_ch, node, dst)
                    assert candidates, (src, dst, node)
                    channel = candidates[hops % len(candidates)]
                    node, in_ch = channel.dst, channel
                    hops += 1
                assert hops == mesh3d.distance(src, dst), (src, dst)
