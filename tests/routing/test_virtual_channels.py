"""Tests for virtual-channel topologies and VC routing algorithms."""

from functools import partial

import pytest

from repro.core.restrictions import dimension_order_restriction
from repro.routing import (
    DatelineTorusRouting,
    LaneSplitRouting,
    make_routing,
    o1turn_routing,
)
from repro.topology import Mesh2D, Torus, VirtualChannelTopology
from tests.core.cdg_oracle import is_deadlock_free


class TestVirtualChannelTopology:
    def test_lane_multiplication(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 3)
        assert vc.num_channels == 3 * mesh44.num_channels
        lanes = {ch.lane for ch in vc.out_channels((1, 1))}
        assert lanes == {0, 1, 2}

    def test_lane_siblings_share_physical_link(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 2)
        channels = [ch for ch in vc.out_channels((0, 0)) if ch.dst == (1, 0)]
        assert len(channels) == 2
        assert channels[0].physical == channels[1].physical

    def test_lane_of(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 2)
        lane0 = next(ch for ch in vc.out_channels((0, 0)) if ch.lane == 0)
        sibling = vc.lane_of(lane0, 1)
        assert sibling.lane == 1
        assert sibling.physical == lane0.physical
        with pytest.raises(ValueError):
            vc.lane_of(lane0, 5)

    def test_distance_and_shape_delegate(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 2)
        assert vc.shape == mesh44.shape
        assert vc.distance((0, 0), (3, 3)) == 6

    def test_zero_lanes_rejected(self, mesh44):
        with pytest.raises(ValueError):
            VirtualChannelTopology(mesh44, 0)

    def test_nesting_rejected(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 2)
        with pytest.raises(ValueError):
            VirtualChannelTopology(vc, 2)


class TestDatelineTorus:
    @pytest.fixture(scope="class")
    def routing(self):
        return DatelineTorusRouting(VirtualChannelTopology(Torus(5, 2), 2))

    def test_requires_vc_torus(self, mesh44, torus42):
        with pytest.raises(ValueError):
            DatelineTorusRouting(VirtualChannelTopology(mesh44, 2))
        with pytest.raises(ValueError):
            DatelineTorusRouting(VirtualChannelTopology(torus42, 1))

    def test_minimal_on_every_pair(self, routing):
        torus = routing.topology.base
        for src in torus.nodes():
            for dst in torus.nodes():
                if src == dst:
                    continue
                node, in_ch, hops = src, None, 0
                while node != dst:
                    (channel,) = routing.route(in_ch, node, dst)
                    node, in_ch = channel.dst, channel
                    hops += 1
                    assert hops <= 10
                assert hops == torus.distance(src, dst), (src, dst)

    def test_deadlock_free(self, routing):
        # The Section 4.2 impossibility is circumvented with the extra
        # lane: minimal, dimension-order, and acyclic.
        assert is_deadlock_free(routing.topology, routing)

    def test_lane_discipline(self, routing):
        # A packet that must wrap starts on lane 0; once past the
        # dateline it rides lane 1.
        channels = []
        node, in_ch = (4, 0), None
        dest = (1, 0)  # +x the short way: 4 -> 0 (wrap) -> 1
        while node != dest:
            (channel,) = routing.route(in_ch, node, dest)
            channels.append(channel)
            node, in_ch = channel.dst, channel
        assert [ch.lane for ch in channels] == [0, 1]
        assert channels[0].wraparound

    def test_no_wrap_path_rides_lane_one(self, routing):
        (channel,) = routing.route(None, (1, 0), (3, 0))
        assert channel.lane == 1
        assert not channel.wraparound


class TestLaneSplit:
    @pytest.fixture(scope="class")
    def o1turn(self):
        return o1turn_routing(VirtualChannelTopology(Mesh2D(5, 5), 2))

    def test_lane_count_must_match(self, mesh44):
        vc = VirtualChannelTopology(mesh44, 2)
        with pytest.raises(ValueError):
            LaneSplitRouting(vc, [partial(make_routing, "xy")])

    def test_packets_never_change_lanes(self, o1turn):
        mesh = o1turn.topology.base
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src == dst:
                    continue
                node, in_ch = src, None
                lanes = set()
                while node != dst:
                    (channel,) = o1turn.route(in_ch, node, dst)
                    lanes.add(channel.lane)
                    node, in_ch = channel.dst, channel
                assert len(lanes) == 1, (src, dst)

    def test_lane0_is_xy_lane1_is_yx(self, o1turn):
        # Force each lane via a chooser and inspect the path shape.
        vc = o1turn.topology
        forced_xy = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "yx")],
            chooser=lambda s, d: 0,
        )
        forced_yx = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "yx")],
            chooser=lambda s, d: 1,
        )
        (first_xy,) = forced_xy.route(None, (0, 0), (2, 2))
        (first_yx,) = forced_yx.route(None, (0, 0), (2, 2))
        assert first_xy.direction.dim == 0
        assert first_yx.direction.dim == 1

    def test_deadlock_free(self, o1turn):
        assert is_deadlock_free(o1turn.topology, o1turn)

    def test_bad_chooser_rejected(self):
        vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
        routing = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "yx")],
            chooser=lambda s, d: 7,
        )
        with pytest.raises(ValueError):
            routing.route(None, (0, 0), (1, 1))


class TestYXRouting:
    def test_y_first(self, mesh44):
        yx = make_routing("yx", mesh44)
        (channel,) = yx.route(None, (0, 0), (2, 3))
        assert channel.direction.dim == 1

    def test_mirrors_xy(self, mesh44):
        xy = make_routing("xy", mesh44)
        yx = make_routing("yx", mesh44)
        # On a pure-x destination both agree.
        assert xy.route(None, (0, 0), (3, 0)) == yx.route(None, (0, 0), (3, 0))

    def test_deadlock_free(self, mesh44):
        assert is_deadlock_free(mesh44, make_routing("yx", mesh44))

    def test_invalid_order_rejected(self, mesh44):
        with pytest.raises(ValueError):
            dimension_order_restriction(2, (0, 0))
