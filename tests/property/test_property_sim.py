"""Property-based tests for the wormhole simulator's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution

MESH = Mesh2D(4, 4)

nodes = st.tuples(st.integers(0, 3), st.integers(0, 3))
messages = st.lists(
    st.tuples(nodes, nodes, st.integers(1, 30)),
    min_size=1,
    max_size=12,
).map(lambda ms: [(s, d, size, 0.0) for s, d, size in ms if s != d])


def run_closed(name, preload, buffer_depth=1):
    routing = make_routing(name, MESH)
    workload = Workload(
        pattern=UniformTraffic(MESH),
        sizes=SizeDistribution.fixed(4),
        offered_load=0.0,
    )
    config = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=6000,
        drain_cycles=0,
        buffer_depth=buffer_depth,
        max_packets=0,
    )
    sim = WormholeSimulator(routing, workload, config, preload=preload)
    return sim, sim.run()


class TestClosedWorkloads:
    @given(preload=messages, name=st.sampled_from(
        ["xy", "west-first", "north-last", "negative-first"]))
    @settings(max_examples=40, deadline=None)
    def test_everything_delivered_no_deadlock(self, preload, name):
        if not preload:
            return
        sim, result = run_closed(name, preload)
        assert not result.deadlocked
        assert result.total_delivered == len(preload)
        assert result.delivered_flits == sum(m[2] for m in preload)
        assert sim.occupancy_snapshot() == 0

    @given(preload=messages, depth=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_buffer_depth_never_breaks_delivery(self, preload, depth):
        if not preload:
            return
        sim, result = run_closed("negative-first", preload, buffer_depth=depth)
        assert result.total_delivered == len(preload)

    @given(preload=messages)
    @settings(max_examples=25, deadline=None)
    def test_latency_bounded_below_by_ideal(self, preload):
        # No packet can beat size + hops + 1 cycles.
        if not preload:
            return
        sim, result = run_closed("xy", preload)
        ideal = min(
            size + MESH.distance(src, dst) + 1
            for src, dst, size, _ in preload
        )
        assert result.avg_latency_cycles >= ideal

    @given(preload=messages)
    @settings(max_examples=20, deadline=None)
    def test_channels_all_free_after_drain(self, preload):
        if not preload:
            return
        sim, _ = run_closed("west-first", preload)
        # Network, injection and ejection ids alike.
        assert all(owner is None for owner in sim._owners)
        assert sim.occupancy_snapshot() == 0
