"""Tests for xy / e-cube dimension-order routing (the dimension-order turn sets)."""

import pytest

from repro.core.directions import EAST, NORTH, SOUTH, WEST
from repro.routing import make_routing
from repro.topology import Hypercube, Mesh, Mesh2D


class TestXY:
    def test_routes_x_before_y(self, mesh44):
        xy = make_routing("xy", mesh44)
        (channel,) = xy.route(None, (0, 0), (2, 3))
        assert channel.direction == EAST

    def test_routes_y_when_x_done(self, mesh44):
        xy = make_routing("xy", mesh44)
        (channel,) = xy.route(None, (2, 0), (2, 3))
        assert channel.direction == NORTH

    def test_single_candidate_always(self, mesh54):
        xy = make_routing("xy", mesh54)
        for src in mesh54.nodes():
            for dst in mesh54.nodes():
                if src != dst:
                    assert len(xy.route(None, src, dst)) == 1

    def test_full_path_is_x_then_y(self, mesh44):
        xy = make_routing("xy", mesh44)
        node, dest = (3, 0), (0, 2)
        dims = []
        while node != dest:
            (channel,) = xy.route(None, node, dest)
            dims.append(channel.direction.dim)
            node = channel.dst
        assert dims == sorted(dims)
        assert node == dest

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            make_routing("xy", Mesh((3, 3, 3)))

    def test_ignores_input_channel(self, mesh44):
        xy = make_routing("xy", mesh44)
        in_ch = mesh44.channel_in_direction((1, 1), EAST)
        assert xy.route(in_ch, (2, 1), (3, 3)) == xy.route(None, (2, 1), (3, 3))


class TestECube:
    def test_lowest_differing_dimension_first(self, cube4):
        ecube = make_routing("e-cube", cube4)
        (channel,) = ecube.route(None, (0, 0, 0, 0), (1, 0, 1, 1))
        assert channel.direction.dim == 0

    def test_skips_matching_dimensions(self, cube4):
        ecube = make_routing("e-cube", cube4)
        (channel,) = ecube.route(None, (1, 0, 0, 0), (1, 0, 1, 1))
        assert channel.direction.dim == 2

    def test_ascending_dimension_path(self, cube4):
        ecube = make_routing("e-cube", cube4)
        node, dest = (1, 1, 0, 0), (0, 0, 1, 1)
        dims = []
        while node != dest:
            (channel,) = ecube.route(None, node, dest)
            dims.append(channel.direction.dim)
            node = channel.dst
        assert dims == [0, 1, 2, 3]

    def test_rejects_mesh(self, mesh44):
        with pytest.raises(ValueError):
            make_routing("e-cube", mesh44)

    def test_name_defaults(self, mesh44, cube4):
        assert make_routing("dimension-order", mesh44).name == "xy"
        assert make_routing("dimension-order", cube4).name == "e-cube"

    def test_path_length_is_hamming_distance(self, cube4):
        ecube = make_routing("e-cube", cube4)
        for src in cube4.nodes():
            for dst in cube4.nodes():
                if src == dst:
                    continue
                node, hops = src, 0
                while node != dst:
                    (channel,) = ecube.route(None, node, dst)
                    node = channel.dst
                    hops += 1
                assert hops == cube4.distance(src, dst)
