"""Whole-run invariants of the engine under generated (random) workloads."""

import pytest

from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Hypercube, Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution


def run(topology, name, pattern_name, load, seed=1, cycles=2500):
    routing = make_routing(name, topology)
    workload = Workload(
        pattern=make_pattern(pattern_name, topology),
        sizes=PAPER_SIZES,
        offered_load=load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=500, measure_cycles=cycles, drain_cycles=500
    )
    sim = WormholeSimulator(routing, workload, config)
    return sim, sim.run()


class TestConservation:
    @pytest.mark.parametrize("name", ["xy", "west-first", "negative-first"])
    def test_injected_at_least_delivered(self, name):
        sim, result = run(Mesh2D(6, 6), name, "uniform", 0.1)
        assert result.total_delivered <= result.total_injected

    def test_leftover_flits_match_in_flight_packets(self):
        sim, result = run(Mesh2D(6, 6), "xy", "uniform", 0.15)
        in_flight = sum(p.flits_in_network for p in sim._active)
        assert sim.occupancy_snapshot() == in_flight

    def test_every_buffer_within_capacity_at_end(self):
        sim, result = run(Mesh2D(6, 6), "negative-first", "transpose", 0.2)
        # A held channel's fill is its owner's occupancy entry: one bit
        # per held channel with the paper's single-flit buffers.
        assert sim.config.buffer_depth == 1
        for packet in sim._active:
            assert not packet.occupancy
            assert 0 <= packet.occ_bits < 1 << len(packet.path)

    def test_channel_ownership_consistent(self):
        sim, result = run(Mesh2D(6, 6), "west-first", "uniform", 0.2)
        held = 0
        for packet in sim._active:
            for ident in packet.path:
                assert sim._owners[ident] is packet
            held += len(packet.path)
        # ... and nothing is owned that is not on an active packet's path.
        assert held == sum(owner is not None for owner in sim._owners)


class TestDeterminism:
    def test_same_seed_same_result(self):
        _, first = run(Mesh2D(5, 5), "negative-first", "uniform", 0.1, seed=9)
        _, second = run(Mesh2D(5, 5), "negative-first", "uniform", 0.1, seed=9)
        assert first.avg_latency_cycles == second.avg_latency_cycles
        assert first.delivered_flits == second.delivered_flits
        assert first.total_injected == second.total_injected

    def test_different_seed_different_traffic(self):
        _, first = run(Mesh2D(5, 5), "xy", "uniform", 0.1, seed=1)
        _, second = run(Mesh2D(5, 5), "xy", "uniform", 0.1, seed=2)
        assert first.total_injected != second.total_injected or (
            first.avg_latency_cycles != second.avg_latency_cycles
        )


class TestHopAccounting:
    def test_mesh_avg_hops_reasonable(self):
        _, result = run(Mesh2D(6, 6), "xy", "uniform", 0.05)
        # Mean uniform distance of a 6x6 mesh is 4; allow sampling noise.
        assert 2.5 < result.avg_hops < 5.5

    def test_minimal_routing_hop_counts_exact(self):
        # With minimal routing the header's hop count equals the distance.
        sim, _ = run(Mesh2D(5, 5), "west-first", "uniform", 0.05)
        topology = sim.topology
        # Run a fresh closed simulation to inspect per-packet hops.
        from tests.sim.test_engine_basics import closed_sim

        preload = [((0, 0), (4, 3), 5, 0.0), ((4, 4), (1, 0), 5, 0.0)]
        sim = closed_sim(Mesh2D(5, 5), "west-first", preload)
        result = sim.run()
        assert result.avg_hops == (7 + 7) / 2

    def test_cube_hops_match_hamming(self):
        _, result = run(Hypercube(4), "p-cube", "uniform", 0.05)
        assert 1.0 < result.avg_hops < 3.5


class TestSaturationBehavior:
    def test_overload_is_flagged_unsustainable(self):
        _, result = run(Mesh2D(5, 5), "xy", "transpose", 0.9, cycles=4000)
        assert not result.is_sustainable()
        assert result.queue_growth > 0

    def test_light_load_is_sustainable(self):
        _, result = run(Mesh2D(5, 5), "xy", "uniform", 0.03, cycles=4000)
        assert result.is_sustainable()
        assert not result.deadlocked

    def test_latency_grows_with_load(self):
        _, low = run(Mesh2D(6, 6), "xy", "uniform", 0.05, cycles=4000)
        _, high = run(Mesh2D(6, 6), "xy", "uniform", 0.35, cycles=4000)
        assert high.avg_latency_cycles > low.avg_latency_cycles
