"""Tests for the engine's performance paths and their exact-equivalence
contracts: the idle fast-forward, the source stream discipline,
window-boundary queue sampling, and the lifetime of a finished simulator.
"""

import gc
import random
import weakref

import pytest

import repro.sim.engine as engine_mod
from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.digest import result_digest
from repro.sim.stats import StatsCollector
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import NodeSource, SizeDistribution

from tests.sim.reference_engine import ReferenceSimulator


def _sim(load=0.05, seed=7, warmup=50, measure=300, drain=50,
         simulator=WormholeSimulator, **cfg):
    mesh = Mesh2D(6, 6)
    routing = make_routing("west-first", mesh)
    workload = Workload(
        pattern=UniformTraffic(mesh),
        sizes=SizeDistribution(((4, 0.5), (12, 0.5))),
        offered_load=load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain,
        **cfg,
    )
    return simulator(routing, workload, config)


class TestSourceStreams:
    def test_heap_generation_matches_the_oracle_scan(self):
        # The engine polls only the sources its arrival heap pops; the
        # oracle polls every source on every executed cycle.  A cut-off
        # that falls inside one cycle's arrivals shows whether both
        # hand the last messages to the same sources.
        for cap in (None, *range(1, 120, 3)):
            engine = _sim(load=0.3, max_packets=cap).run()
            oracle = _sim(
                load=0.3, max_packets=cap, simulator=ReferenceSimulator
            ).run()
            assert result_digest(engine) == result_digest(oracle), cap
            if cap is not None:
                assert engine.total_delivered == cap

    def test_silent_source_never_arrives(self):
        mesh = Mesh2D(4, 4)
        src = NodeSource(
            (0, 0), UniformTraffic(mesh), SizeDistribution.fixed(4),
            0.0, random.Random(1),
        )
        assert src.next_arrival == float("inf")
        assert src.poll(10_000) == []


class TestIdleFastForward:
    def test_sparse_run_executes_fewer_cycles_than_simulated(self):
        sim = _sim(load=0.001, warmup=0, measure=5_000, drain=0)
        result = sim.run()
        assert sim.cycle + 1 == 5_000
        assert sim.cycles_executed < 5_000
        assert result.total_delivered > 0

    def test_fast_forward_does_not_change_results(self):
        # The oracle's idle jump is written separately: a jump that skips
        # an arrival, or lands on the wrong cycle, changes the digest.
        point = dict(load=0.001, warmup=500, measure=4_000, drain=500)
        engine = _sim(**point)
        result = engine.run()
        assert engine.cycles_executed < engine.cycle + 1  # the jump happened
        assert result.total_delivered > 0
        oracle = _sim(simulator=ReferenceSimulator, **point)
        assert result_digest(result) == result_digest(oracle.run())


class TestWindowQueueSampling:
    def test_empty_queues_at_window_start_report_zero(self):
        # Zero offered load: the warmup boundary samples legitimately
        # empty queues; the result must report 0, not fall back as if
        # the sample were missing.
        sim = _sim(load=0.0, max_packets=0)
        result = sim.run()
        assert result.queue_start == 0
        assert result.queue_end == 0

    def test_none_samples_fall_back_to_zero(self):
        # _result's explicit is-None fallback (run() normally backfills,
        # but the distinction between "sampled 0" and "never sampled"
        # must not be erased by truthiness).
        sim = _sim(load=0.0, max_packets=0)
        stats = StatsCollector(0, 10)
        assert stats.queue_len_at_window_start is None
        result = sim._result(stats)
        assert result.queue_start == 0
        assert result.queue_end == 0


class TestSimulatorLifetime:
    """A finished simulator is freed by reference count: no cycle keeps
    it for the garbage collector, whose full passes would otherwise free
    a batch of old simulators on some later point's clock (tens of
    milliseconds, on whichever point is running)."""

    @pytest.fixture(autouse=True)
    def _no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_a_run_simulator_dies_with_its_last_reference(self):
        sim = _sim(load=0.2)
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None

    @pytest.mark.parametrize("extras", ["plain", "obs", "faults", "obs+faults"])
    def test_a_point_leaves_no_simulator_behind(self, monkeypatch, extras):
        import repro.analysis.executor as executor_mod
        from repro.api import ConfigSpec, ExperimentSpec, ObsSpec, ResilienceSpec

        built = []

        def tracking(*args, **kwargs):
            simulator = engine_mod.make_simulator(*args, **kwargs)
            built.append(weakref.ref(simulator))
            return simulator

        monkeypatch.setattr(executor_mod, "make_simulator", tracking)
        spec = ExperimentSpec(
            topology="mesh:6x6", routing="west-first", pattern="uniform",
            load=0.2, seed=7,
            config=ConfigSpec(warmup_cycles=50, measure_cycles=300, drain_cycles=50),
            obs=ObsSpec() if "obs" in extras else None,
            resilience=ResilienceSpec(fault_count=2) if "faults" in extras else None,
        )
        run = spec.run_full()
        assert run.result.total_delivered > 0
        assert [ref() for ref in built] == [None]
