"""MetricsCollector: counters, channels, timeline, and its hook contract."""

import pytest

from repro.obs.metrics import OBS_SCHEMA_VERSION, MetricsCollector
from repro.obs.spec import ObsSpec
from repro.resilience.schedule import channel_from_label
from repro.routing.registry import make_routing
from repro.sim.config import SimulationConfig
from repro.sim.engine import WormholeSimulator
from repro.topology.mesh import Mesh2D
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import SizeDistribution, Workload


def _run(spec=None, load=0.15, seed=5, side=6):
    mesh = Mesh2D(side, side)
    workload = Workload(
        pattern=make_pattern("transpose", mesh),
        sizes=SizeDistribution(((4, 0.5), (16, 0.5))),
        offered_load=load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=100, measure_cycles=600, drain_cycles=300
    )
    collector = MetricsCollector(spec)
    sim = WormholeSimulator(
        make_routing("west-first", mesh), workload, config, obs=collector
    )
    result = sim.run()
    return collector, sim, result


class TestCounters:
    def test_totals_agree_with_the_result(self):
        collector, sim, result = _run()
        summary = collector.summary()
        counters = summary["counters"]
        assert summary["obs_schema_version"] == OBS_SCHEMA_VERSION
        assert counters["injected_packets"] == result.total_injected
        assert counters["delivered_packets"] == result.total_delivered
        assert counters["flit_moves"] == sim.flit_moves
        assert counters["cycles_executed"] == sim.cycles_executed
        assert counters["cycles_observed"] == sim.cycles_executed
        assert counters["observed_deliveries"] == result.total_delivered
        assert collector.finished

    def test_latency_reservoir_sees_every_delivery_when_roomy(self):
        collector, _, result = _run(ObsSpec(latency_reservoir=100_000))
        latency = collector.summary()["latency_cycles"]
        assert latency["population"] == result.total_delivered
        assert latency["sampled"] == result.total_delivered
        assert latency["min"] >= 1.0
        assert latency["p50"] <= latency["p90"] <= latency["p99"]

    def test_park_wake_events_observed_under_contention(self):
        collector, _, _ = _run(load=0.5)
        counters = collector.summary()["counters"]
        assert counters["park_events"] > 0
        assert counters["wake_events"] > 0
        assert counters["wake_events"] <= counters["park_events"]


class TestChannels:
    def test_per_channel_accumulators_cover_the_topology(self):
        collector, sim, _ = _run()
        channels = collector.summary()["channels"]
        assert set(channels) == {
            "samples", "sample_every", "channel", "busy_samples",
            "occupancy_sum",
        }
        assert channels["sample_every"] == 1
        assert channels["samples"] == collector.cycles_observed
        # Three columns in engine channel-id order.
        assert [channel_from_label(label) for label in channels["channel"]] == list(
            sim.network_channels
        )
        assert len(channels["busy_samples"]) == len(sim.network_channels)
        assert len(channels["occupancy_sum"]) == len(sim.network_channels)
        assert 0 < max(channels["busy_samples"]) <= channels["samples"]
        assert all(busy >= 0 for busy in channels["busy_samples"])

    def test_sample_every_thins_the_denominator(self):
        dense, _, _ = _run(ObsSpec(sample_every=1))
        sparse, _, _ = _run(ObsSpec(sample_every=4))
        dense_channels = dense.summary()["channels"]
        sparse_channels = sparse.summary()["channels"]
        assert sparse_channels["samples"] < dense_channels["samples"]
        # Thinning changes the sample set, not the signal: the busiest
        # channel's utilization estimate stays in the same ballpark.
        dense_max = max(dense_channels["busy_samples"]) / dense_channels["samples"]
        sparse_max = max(sparse_channels["busy_samples"]) / sparse_channels["samples"]
        assert sparse_max == pytest.approx(dense_max, abs=0.15)

    def test_channels_disabled(self):
        collector, _, _ = _run(ObsSpec(channels=False))
        assert collector.summary()["channels"] is None


class TestTimeline:
    def test_buckets_partition_the_run_totals(self):
        collector, sim, result = _run(ObsSpec(timeline_window=128))
        timeline = collector.summary()["timeline"]
        assert timeline["window"] == 128
        buckets = timeline["buckets"]
        assert buckets == sorted(buckets, key=lambda b: b["start"])
        assert sum(b["flit_moves"] for b in buckets) == sim.flit_moves
        assert (
            sum(b["injected_packets"] for b in buckets)
            == result.total_injected
        )
        assert (
            sum(b["delivered_packets"] for b in buckets)
            == result.total_delivered
        )
        for bucket in buckets:
            assert bucket["end"] - bucket["start"] == 128
            if bucket["delivered_packets"]:
                assert bucket["avg_latency_cycles"] > 0

    def test_timeline_disabled(self):
        collector, _, _ = _run(ObsSpec(timeline=False))
        assert collector.summary()["timeline"] is None


class TestStoppingCycleIsSampled:
    """A run that stops before its cycle budget — drained, deadlocked
    or aborted — still hands its last executed cycle to the collector."""

    @staticmethod
    def _stopped_run(mode):
        from repro.resilience import AbortRun, FaultController, FaultSchedule
        from repro.sim.deadlock import (
            RoutableUniformTraffic,
            unrestricted_adaptive_routing,
        )

        mesh = Mesh2D(4, 4)
        routing = make_routing("xy", mesh)
        pattern = make_pattern("uniform", mesh)
        load, size, preload, controller = 0.0, 4, None, None
        knobs = dict(warmup_cycles=0, measure_cycles=600, drain_cycles=0)
        if mode == "drained":
            preload = [((0, 0), (3, 3), 4, 0.0), ((3, 0), (0, 3), 4, 0.0)]
            knobs["max_packets"] = 2
        elif mode == "deadlocked":
            routing = unrestricted_adaptive_routing(mesh)
            pattern = RoutableUniformTraffic(routing)
            load, size = 0.5, 16
            knobs.update(measure_cycles=20_000, deadlock_threshold=200)
        else:
            load = 0.2
            controller = FaultController(
                FaultSchedule.random(mesh, 4, seed=1, window=(50, 150)),
                AbortRun(), recertify=False,
            )
        collector = MetricsCollector(ObsSpec(timeline_window=8))
        sim = WormholeSimulator(
            routing,
            Workload(pattern=pattern, sizes=SizeDistribution.fixed(size),
                     offered_load=load, seed=3),
            SimulationConfig(**knobs), preload=preload,
            resilience=controller, obs=collector,
        )
        result = sim.run()
        return collector.summary(), sim, result, controller

    @pytest.mark.parametrize("mode", ["drained", "deadlocked", "aborted"])
    def test_every_executed_cycle_is_observed(self, mode):
        summary, sim, result, controller = self._stopped_run(mode)
        # The run really did stop early, the way the mode says.
        assert sim.cycle + 1 < sim.config.total_cycles
        assert result.deadlocked == (mode == "deadlocked")
        assert (controller is not None and controller.stats.aborted) == (
            mode == "aborted"
        )
        counters = summary["counters"]
        assert counters["cycles_observed"] == counters["cycles_executed"]
        buckets = summary["timeline"]["buckets"]
        assert sum(b["flit_moves"] for b in buckets) == counters["flit_moves"]
        assert (
            sum(b["injected_packets"] for b in buckets)
            == counters["injected_packets"]
        )
        assert summary["channels"]["samples"] == counters["cycles_executed"]

    def test_the_drained_example_by_the_numbers(self):
        # Two 4-flit packets corner to corner on a 4x4 mesh: 12 cycles
        # executed, 72 flit moves — all of them on the timeline.
        summary, _, _, _ = self._stopped_run("drained")
        counters = summary["counters"]
        assert counters["cycles_executed"] == counters["cycles_observed"] == 12
        moves = [b["flit_moves"] for b in summary["timeline"]["buckets"]]
        assert sum(moves) == counters["flit_moves"] == 72


class TestLifecycle:
    def test_collector_is_single_use(self):
        collector, _, _ = _run()
        mesh = Mesh2D(4, 4)
        workload = Workload(
            pattern=make_pattern("uniform", mesh),
            sizes=SizeDistribution(((4, 1.0),)),
            offered_load=0.1,
            seed=1,
        )
        with pytest.raises(RuntimeError, match="single-use"):
            WormholeSimulator(
                make_routing("xy", mesh),
                workload,
                SimulationConfig(
                    warmup_cycles=10, measure_cycles=50, drain_cycles=20
                ),
                obs=collector,
            )

    def test_default_spec_is_the_obsspec_default(self):
        assert MetricsCollector().spec == ObsSpec()

    def test_a_bound_run_read_before_it_finishes_raises(self):
        # Mid-run the totals are missing and the channel sums are partial
        # (a held channel has not been settled yet): no summary then.
        errors = []

        class EarlyReader(MetricsCollector):
            def on_cycle_end(self, cycle, sim):
                super().on_cycle_end(cycle, sim)
                if cycle == 300:
                    for read in (self.summary, self.channel_records):
                        with pytest.raises(RuntimeError, match="before its run"):
                            read()
                        errors.append(read.__name__)

        collector = EarlyReader()
        mesh = Mesh2D(4, 4)
        sim = WormholeSimulator(
            make_routing("xy", mesh),
            Workload(pattern=make_pattern("uniform", mesh),
                     sizes=SizeDistribution(((4, 1.0),)),
                     offered_load=0.3, seed=1),
            SimulationConfig(warmup_cycles=100, measure_cycles=400,
                             drain_cycles=100),
            obs=collector,
        )
        with pytest.raises(RuntimeError, match="before its run"):
            collector.summary()
        sim.run()
        assert errors == ["summary", "channel_records"]
        assert collector.summary()["counters"]["cycles_observed"] > 0

    def test_a_collector_never_bound_summarises_its_empty_state(self):
        summary = MetricsCollector().summary()
        assert summary["counters"] == {
            "cycles_observed": 0, "park_events": 0, "wake_events": 0,
            "observed_deliveries": 0, "observed_delivered_flits": 0,
        }
        assert summary["channels"] == {
            "samples": 0, "sample_every": 1, "channel": [],
            "busy_samples": [], "occupancy_sum": [],
        }
        assert MetricsCollector().channel_records() == []


class TestObsSpecValidation:
    def test_round_trip(self):
        spec = ObsSpec(sample_every=3, timeline_window=77, latency_reservoir=9)
        assert ObsSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every": 0},
            {"timeline_window": 0},
            {"latency_reservoir": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObsSpec(**kwargs)
