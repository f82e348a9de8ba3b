"""Property-based tests for the extension subsystems (hex, oct, VC, faults)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    DatelineTorusRouting,
    HexNegativeFirstRouting,
    OctNegativeFirstRouting,
    TurnRestrictionRouting,
    o1turn_routing,
)
from repro.core.restrictions import west_first_restriction
from repro.topology import (
    FaultyTopology,
    HexMesh,
    Mesh2D,
    OctMesh,
    Torus,
    VirtualChannelTopology,
)
from tests.core.cdg_oracle import is_deadlock_free

HEX = HexMesh(5, 5)
HEX_NF = HexNegativeFirstRouting(HEX)
OCT = OctMesh(5, 5)
OCT_NF = OctNegativeFirstRouting(OCT)
VC_TORUS = VirtualChannelTopology(Torus(5, 2), 2)
DATELINE = DatelineTorusRouting(VC_TORUS)
MESH = Mesh2D(5, 5)

hex_nodes = st.tuples(st.integers(0, 4), st.integers(0, 4))
torus_nodes = st.tuples(st.integers(0, 4), st.integers(0, 4))
choices = st.lists(st.integers(0, 5), min_size=1, max_size=8)


def walk(topology, algorithm, src, dst, picks):
    node, in_ch, hops = src, None, 0
    while node != dst:
        candidates = algorithm.route(in_ch, node, dst)
        assert candidates, (src, dst, node)
        channel = candidates[picks[hops % len(picks)] % len(candidates)]
        node, in_ch = channel.dst, channel
        hops += 1
        assert hops <= 100
    return hops


class TestHexProperties:
    @given(src=hex_nodes, dst=hex_nodes, picks=choices)
    @settings(max_examples=80, deadline=None)
    def test_minimal_delivery(self, src, dst, picks):
        if src == dst:
            return
        assert walk(HEX, HEX_NF, src, dst, picks) == HEX.distance(src, dst)

    @given(src=hex_nodes, dst=hex_nodes)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetric_and_bounded(self, src, dst):
        d = HEX.distance(src, dst)
        assert d == HEX.distance(dst, src)
        assert d <= abs(dst[0] - src[0]) + abs(dst[1] - src[1])


class TestOctProperties:
    @given(src=hex_nodes, dst=hex_nodes, picks=choices)
    @settings(max_examples=80, deadline=None)
    def test_minimal_delivery(self, src, dst, picks):
        if src == dst:
            return
        assert walk(OCT, OCT_NF, src, dst, picks) == OCT.distance(src, dst)

    @given(src=hex_nodes, dst=hex_nodes, picks=choices)
    @settings(max_examples=60, deadline=None)
    def test_phase_transition_is_one_way(self, src, dst, picks):
        if src == dst:
            return
        node, in_ch, hops = src, None, 0
        ascended = False
        while node != dst:
            candidates = OCT_NF.route(in_ch, node, dst)
            channel = candidates[picks[hops % len(picks)] % len(candidates)]
            if channel.direction.is_positive:
                ascended = True
            else:
                assert not ascended
            node, in_ch = channel.dst, channel
            hops += 1


class TestDatelineProperties:
    @given(src=torus_nodes, dst=torus_nodes)
    @settings(max_examples=80, deadline=None)
    def test_minimal_and_deterministic(self, src, dst):
        if src == dst:
            return
        hops = walk(VC_TORUS, DATELINE, src, dst, [0])
        assert hops == VC_TORUS.distance(src, dst)

    @given(src=torus_nodes, dst=torus_nodes)
    @settings(max_examples=60, deadline=None)
    def test_lane_never_decreases_within_a_ring(self, src, dst):
        # Along one dimension's travel the lane can only go 0 -> 1 (the
        # dateline is crossed at most once).
        if src == dst:
            return
        node, in_ch = src, None
        lanes_by_dim = {}
        while node != dst:
            (channel,) = DATELINE.route(in_ch, node, dst)
            dim = channel.direction.dim
            previous = lanes_by_dim.get(dim)
            if previous is not None:
                assert channel.lane >= previous
            lanes_by_dim[dim] = channel.lane
            node, in_ch = channel.dst, channel


class TestFaultProperties:
    @given(
        fault_seed=st.integers(0, 1000),
        count=st.integers(0, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_faults_never_reintroduce_deadlock(self, fault_seed, count):
        from repro.topology import random_channel_faults

        faulty = random_channel_faults(MESH, count, seed=fault_seed)
        routing = TurnRestrictionRouting(
            faulty, west_first_restriction(), minimal=False
        )
        assert is_deadlock_free(faulty, routing)
