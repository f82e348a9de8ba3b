"""Ablations of the router design choices the paper fixes or defers.

Each test runs a handful of 6x6 or 8x8 points and asserts the claim its
experiment makes (DESIGN.md's experiment index names them):

* buffer depth: the paper's routers buffer one flit per input channel;
  deeper buffers never hurt saturation throughput;
* input selection: local FCFS (the paper's choice, for fairness) and
  random arbitration move aggregate throughput little;
* output selection: no policy collapses negative-first on transpose;
* node delay (Section 7): the adaptive advantage on transpose survives
  a doubled routing delay;
* nonminimal routing (Section 1): longer paths by design, but no lost
  packets and no deadlock.
"""

import dataclasses

import pytest

from repro.api import SimulationConfig, make_routing, run
from repro.routing.selection import make_input_policy, make_output_policy
from repro.sim import make_simulator
from repro.topology import Mesh2D
from repro.traffic import HotspotTraffic, Workload

SATURATION = SimulationConfig(
    warmup_cycles=1000, measure_cycles=5000, drain_cycles=0
)
SHORT = SimulationConfig(
    warmup_cycles=800, measure_cycles=4000, drain_cycles=1500
)


def point(routing, pattern, load, config, topology="mesh:8x8"):
    return run(topology=topology, routing=routing, pattern=pattern,
               load=load, config=config).result


def test_deeper_buffers_never_hurt():
    throughput = {
        depth: point(
            "xy", "uniform", 0.45,
            dataclasses.replace(SATURATION, buffer_depth=depth),
        ).throughput_flits_per_usec
        for depth in (1, 4)
    }
    assert throughput[4] >= 0.95 * throughput[1], throughput


def test_input_arbitration_barely_moves_throughput():
    config = dataclasses.replace(SATURATION, measure_cycles=6000, drain_cycles=2000)
    results = {
        name: point(
            "xy", "uniform", 0.35,
            dataclasses.replace(config, input_policy=make_input_policy(name)),
        )
        for name in ("fcfs", "random-input")
    }
    assert not any(r.deadlocked for r in results.values())
    fcfs, rand = (r.throughput_flits_per_usec for r in results.values())
    assert abs(fcfs - rand) < 0.25 * max(fcfs, rand)


def test_no_output_policy_collapses():
    throughput = {
        name: point(
            "negative-first", "transpose", 0.5,
            dataclasses.replace(SATURATION, output_policy=make_output_policy(name)),
        ).throughput_flits_per_usec
        for name in ("xy", "random", "most-free")
    }
    best = max(throughput.values())
    for name, value in throughput.items():
        assert value > best / 2, (name, throughput)


def test_adaptive_advantage_survives_doubled_node_delay():
    xy = point("xy", "transpose", 0.5, SATURATION)
    slow_nf = point(
        "negative-first", "transpose", 0.5,
        dataclasses.replace(SATURATION, routing_delay_cycles=2),
    )
    assert slow_nf.throughput_flits_per_usec > 1.2 * xy.throughput_flits_per_usec


class TestNonminimal:
    @pytest.fixture(scope="class")
    def results(self):
        mesh = Mesh2D(6, 6)
        out = {}
        for name in ("west-first", "west-first-nonminimal"):
            out[name, "uniform"] = point(name, "uniform", 0.15, SHORT,
                                         topology="mesh:6x6")
            # A hotspot pattern has no registry name: the engine factory
            # runs it from the instance.
            workload = Workload(
                pattern=HotspotTraffic(mesh, hotspot=(3, 3), hotspot_fraction=0.15),
                offered_load=0.12,
            )
            out[name, "hotspot"] = make_simulator(
                make_routing(name, mesh), workload, SHORT
            ).run()
        return out

    def test_every_run_delivers_without_deadlock(self, results):
        for key, result in results.items():
            assert not result.deadlocked, key
            assert result.total_delivered > 0, key

    def test_nonminimal_paths_are_no_shorter(self, results):
        assert results["west-first-nonminimal", "uniform"].avg_hops >= (
            results["west-first", "uniform"].avg_hops - 0.01
        )
