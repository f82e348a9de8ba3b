"""Engine tests for virtual channels: lane buffering and shared bandwidth."""

from functools import partial

import pytest

from repro.routing import (
    DatelineTorusRouting,
    LaneSplitRouting,
    make_routing,
    o1turn_routing,
)
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D, Torus, VirtualChannelTopology
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution


def run_vc(routing, preload, cycles=4000):
    workload = Workload(
        pattern=UniformTraffic(routing.topology),
        sizes=SizeDistribution.fixed(4),
        offered_load=0.0,
    )
    config = SimulationConfig(
        warmup_cycles=0, measure_cycles=cycles, drain_cycles=0, max_packets=0
    )
    sim = WormholeSimulator(routing, workload, config, preload=preload)
    return sim, sim.run()


class TestLaneBuffers:
    def test_single_packet_timing_unchanged(self):
        # One packet through a VC mesh behaves exactly like the plain
        # mesh: size + hops + 1 cycles.
        vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
        routing = o1turn_routing(vc)
        _, result = run_vc(routing, [((0, 0), (2, 1), 6, 0.0)])
        assert result.total_delivered == 1
        assert result.avg_latency_cycles == 6 + 3 + 1

    def test_two_lanes_share_one_physical_link(self):
        # Two packets on different lanes of the same physical channel:
        # with one flit per cycle per physical link, moving 2 x N flits
        # across takes about 2N cycles, not N.
        vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
        size = 20
        # Force one packet onto each lane, same physical route (0,0)->(3,0).
        lane0 = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "yx")],
            chooser=lambda s, d: 0,
            name="forced",
        )
        # Craft paths that share the (1,0)->(2,0) link on both lanes: xy
        # from (0,0)->(3,0) rides lane 0; yx from (1,1)?  Instead force
        # lane by destination parity with a custom chooser.
        both = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "xy")],
            chooser=lambda s, d: 0 if s == (0, 0) else 1,
            name="shared-phy",
        )
        preload = [
            ((0, 0), (3, 0), size, 0.0),
            ((0, 0), (3, 0), size, 0.0),
        ]
        # Same source: they serialize on injection anyway; use different
        # sources that converge on the same physical column instead.
        preload = [
            ((0, 0), (3, 0), size, 0.0),   # lane 0, row 0 eastward
            ((1, 0), (3, 0), size, 0.0),   # lane 1, row 0 eastward
        ]
        sim, result = run_vc(both, preload)
        assert result.total_delivered == 2
        # Packet 2's flits interleave with packet 1's on the shared links,
        # so the joint completion is slower than the isolated case.
        _, isolated = run_vc(both, [((1, 0), (3, 0), size, 0.0)])
        assert result.max_latency_cycles > isolated.max_latency_cycles

    def test_lanes_prevent_head_of_line_blocking(self):
        # A blocked lane-0 packet does not stop a lane-1 packet from
        # using the same physical link (the VC selling point).
        vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
        routing = LaneSplitRouting(
            vc,
            [partial(make_routing, "xy"), partial(make_routing, "xy")],
            chooser=lambda s, d: 0 if d[1] == 0 else 1,
            name="hol-test",
        )
        preload = [
            ((2, 0), (3, 0), 60, 0.0),    # lane 0: camps on (2,0)->(3,0)
            ((0, 0), (3, 0), 9, 0.0),     # lane 0: blocked behind it,
                                          # holding lane 0 of (1,0)->(2,0)
            ((1, 0), (2, 1), 8, 0.0),     # lane 1: crosses the same
                                          # physical link (1,0)->(2,0)
        ]
        sim, result = run_vc(routing, preload)
        assert result.total_delivered == 3
        by_size = result.latency_by_size_cycles
        # The lane-1 packet sails past on its own lane...
        assert by_size[8] < 30
        # ...while the lane-0 packet waits out the 60-flit blocker.
        assert by_size[9] > 60


class TestDatelineUnderLoad:
    def test_uniform_traffic_delivers_minimally(self):
        vc = VirtualChannelTopology(Torus(4, 2), 2)
        routing = DatelineTorusRouting(vc)
        workload = Workload(
            pattern=UniformTraffic(vc), offered_load=0.1,
        )
        config = SimulationConfig(
            warmup_cycles=500, measure_cycles=3000, drain_cycles=1000
        )
        result = WormholeSimulator(routing, workload, config).run()
        assert not result.deadlocked
        assert result.total_delivered > 50
        # Minimal routing: mean hops equals the pattern's mean distance.
        expected = UniformTraffic(vc).mean_minimal_hops()
        assert result.avg_hops == pytest.approx(expected, rel=0.1)

    def test_heavy_load_does_not_deadlock(self):
        vc = VirtualChannelTopology(Torus(4, 2), 2)
        routing = DatelineTorusRouting(vc)
        workload = Workload(
            pattern=UniformTraffic(vc), offered_load=0.9,
            sizes=SizeDistribution.fixed(16),
        )
        config = SimulationConfig(
            warmup_cycles=0, measure_cycles=6000, drain_cycles=0,
            deadlock_threshold=800,
        )
        result = WormholeSimulator(routing, workload, config).run()
        assert not result.deadlocked
