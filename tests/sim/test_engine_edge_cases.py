"""Engine edge cases: errors, caps, drain accounting, tie-breaking."""

import pytest

from repro.core.restrictions import figure4_restriction
from repro.routing import TurnRestrictionRouting, make_routing
from repro.sim import RoutingError, SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution


def build(routing, preload=None, offered=0.0, **cfg):
    workload = Workload(
        pattern=UniformTraffic(routing.topology),
        sizes=SizeDistribution.fixed(4),
        offered_load=offered,
    )
    defaults = dict(warmup_cycles=0, measure_cycles=2000, drain_cycles=0)
    defaults.update(cfg)
    config = SimulationConfig(**defaults)
    return WormholeSimulator(routing, workload, config, preload=preload)


class TestRoutingErrorSurface:
    def test_unroutable_preload_raises(self, mesh44):
        # Figure 4's faulty restriction cannot route (2,3) -> (3,0); the
        # engine surfaces the dead end instead of hanging.
        routing = TurnRestrictionRouting(
            mesh44, figure4_restriction(), minimal=False, name="faulty"
        )
        sim = build(routing, preload=[((2, 3), (3, 0), 4, 0.0)], max_packets=0)
        with pytest.raises(RoutingError):
            sim.run()

    def test_preload_to_self_rejected(self, mesh44):
        routing = make_routing("xy", mesh44)
        with pytest.raises(ValueError):
            build(routing, preload=[((1, 1), (1, 1), 4, 0.0)])

    def test_preload_outside_topology_rejected(self, mesh44):
        routing = make_routing("xy", mesh44)
        with pytest.raises(ValueError):
            build(routing, preload=[((9, 9), (1, 1), 4, 0.0)])

    def test_pattern_on_another_topology_rejected(self, mesh44, cube4):
        workload = Workload(pattern=UniformTraffic(cube4), offered_load=0.05)
        with pytest.raises(ValueError):
            WormholeSimulator(make_routing("xy", mesh44), workload,
                              SimulationConfig())


class TestMaxPackets:
    def test_generation_capped(self, mesh44):
        routing = make_routing("xy", mesh44)
        sim = build(routing, offered=0.5, max_packets=7,
                    measure_cycles=4000, drain_cycles=2000)
        result = sim.run()
        assert result.total_injected <= 7
        assert result.total_delivered <= 7

    def test_early_exit_when_done(self, mesh44):
        routing = make_routing("xy", mesh44)
        sim = build(routing, preload=[((0, 0), (1, 0), 2, 0.0)],
                    max_packets=0, measure_cycles=100_000)
        result = sim.run()
        # The run ends as soon as the single packet drains, far before
        # the nominal horizon.
        assert sim.cycle < 1000
        assert result.total_delivered == 1


class TestDrainAccounting:
    def test_packet_created_in_window_measured_during_drain(self, mesh44):
        # A message created late in the window finishes during the drain
        # phase and must still contribute a latency sample.
        routing = make_routing("xy", mesh44)
        workload = Workload(
            pattern=UniformTraffic(mesh44),
            sizes=SizeDistribution.fixed(4),
            offered_load=0.0,
        )
        config = SimulationConfig(
            warmup_cycles=0, measure_cycles=5, drain_cycles=200, max_packets=0
        )
        sim = WormholeSimulator(
            routing, workload, config, preload=[((0, 0), (3, 3), 30, 2.0)]
        )
        result = sim.run()
        assert result.latency_samples == 1
        # Delivered flits inside the 5-cycle window: none (the packet is
        # still injecting).
        assert result.delivered_flits == 0


class TestFCFSTieBreak:
    def test_equal_arrival_resolved_by_pid(self, mesh44):
        # Two headers arriving at the same router on the same cycle are
        # ordered by packet id — deterministic, reproducible runs.
        routing = make_routing("xy", mesh44)
        preload = [
            ((0, 1), (2, 1), 10, 0.0),
            ((1, 0), (2, 1), 10, 0.0),
        ]
        results = set()
        for _ in range(3):
            sim = build(routing, preload=list(preload), max_packets=0)
            result = sim.run()
            results.add((result.avg_latency_cycles, result.total_delivered))
        assert len(results) == 1
