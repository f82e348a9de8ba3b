"""Deterministic single-packet engine tests.

These pin down the cycle-level timing model: one cycle per flit per
channel, one cycle of routing per hop, injection and ejection channels like
any other.  A packet of S flits crossing h network hops at zero load takes
exactly ``S + h + 1`` cycles from the cycle its header enters the
injection buffer to the cycle its tail is consumed.
"""

import pytest

from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution


def closed_sim(mesh, algorithm_name, preload, buffer_depth=1, cycles=2000):
    """A simulator with no generated traffic, only preloaded messages."""
    routing = make_routing(algorithm_name, mesh)
    workload = Workload(
        pattern=UniformTraffic(mesh),
        sizes=SizeDistribution.fixed(4),
        offered_load=0.0,
    )
    config = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=0,
        buffer_depth=buffer_depth,
        max_packets=0,
    )
    return WormholeSimulator(routing, workload, config, preload=preload)


class TestSinglePacket:
    @pytest.mark.parametrize("size", [1, 3, 10])
    def test_one_hop_latency(self, mesh44, size):
        sim = closed_sim(mesh44, "xy", [((0, 0), (1, 0), size, 0.0)])
        result = sim.run()
        assert result.total_delivered == 1
        assert not result.deadlocked
        # size flits + 1 hop + 1 (injection-buffer cycle) cycles.
        assert result.avg_latency_cycles == size + 1 + 1

    @pytest.mark.parametrize("size,hops", [(1, 2), (5, 3), (8, 6)])
    def test_multi_hop_latency(self, mesh44, size, hops):
        dest = {2: (2, 0), 3: (3, 0), 6: (3, 3)}[hops]
        sim = closed_sim(mesh44, "xy", [((0, 0), dest, size, 0.0)])
        result = sim.run()
        assert result.avg_latency_cycles == size + hops + 1
        assert result.avg_hops == hops

    def test_latency_is_distance_plus_length(self, mesh88):
        # The wormhole pipeline: latency ~ distance + length, not their
        # product (Section 1's store-and-forward comparison).
        size, hops = 20, 10
        sim = closed_sim(Mesh2D(8, 8), "xy", [((0, 0), (7, 3), size, 0.0)])
        result = sim.run()
        assert result.avg_latency_cycles == size + hops + 1
        assert result.avg_latency_cycles < size * hops

    def test_fractional_create_time_counted(self, mesh44):
        # Preloaded messages are queued before the run starts; a
        # fractional create_time only shifts the latency accounting.
        sim = closed_sim(mesh44, "xy", [((0, 0), (1, 0), 2, 0.5)])
        result = sim.run()
        assert result.avg_latency_cycles == pytest.approx(4 - 0.5)

    def test_buffer_depth_does_not_change_zero_load_latency(self, mesh44):
        results = []
        for depth in (1, 2, 4):
            sim = closed_sim(
                mesh44, "xy", [((0, 0), (3, 2), 6, 0.0)], buffer_depth=depth
            )
            results.append(sim.run().avg_latency_cycles)
        assert results[0] == results[1] == results[2]


class TestMultiplePackets:
    def test_disjoint_packets_do_not_interact(self, mesh44):
        preload = [
            ((0, 0), (1, 0), 5, 0.0),
            ((3, 3), (2, 3), 5, 0.0),
        ]
        result = closed_sim(mesh44, "xy", preload).run()
        assert result.total_delivered == 2
        assert result.avg_latency_cycles == 5 + 1 + 1

    def test_back_to_back_same_source(self, mesh44):
        # The second message waits for the first to clear the injection
        # channel (wormhole holds it until the tail is injected).
        preload = [
            ((0, 0), (1, 0), 4, 0.0),
            ((0, 0), (1, 0), 4, 0.0),
        ]
        result = closed_sim(mesh44, "xy", preload).run()
        assert result.total_delivered == 2
        # First: 6 cycles. Second's latency includes the source queueing.
        assert result.avg_latency_cycles > 6

    def test_flit_conservation(self, mesh44):
        preload = [
            ((0, 0), (3, 3), 7, 0.0),
            ((1, 2), (2, 0), 3, 0.0),
            ((3, 1), (0, 2), 11, 0.0),
        ]
        sim = closed_sim(mesh44, "negative-first", preload)
        result = sim.run()
        assert result.total_delivered == 3
        assert result.delivered_flits == 7 + 3 + 11
        assert sim.occupancy_snapshot() == 0

    def test_all_channels_released_at_end(self, mesh44):
        preload = [((0, 0), (3, 3), 9, 0.0), ((3, 3), (0, 0), 9, 0.0)]
        sim = closed_sim(mesh44, "west-first", preload)
        sim.run()
        assert all(owner is None for owner in sim._owners)
        assert sim.occupancy_snapshot() == 0
