"""Tests for the parallel sweep executor, specs, and the result cache."""

import dataclasses
import io
import json
import pickle
import subprocess
import sys

import pytest

from repro.analysis.executor import (
    SPEC_VERSION,
    ConfigSpec,
    ExecutorHooks,
    ExperimentSpec,
    PointSpec,
    ProgressPrinter,
    ResilienceSpec,
    ResultCache,
    RunResult,
    SweepExecutor,
    encode_point_record,
)
from repro.analysis.results_io import result_to_dict
from repro.analysis.sweep import SweepPoint, truncate_at_saturation
from repro.obs.manifest import iter_manifests
from repro.obs.spec import ObsSpec
from repro.routing.registry import make_routing
from repro.routing.selection import OutputSelectionPolicy
from repro.sim import make_simulator
from repro.sim.config import SimulationConfig
from repro.sim.digest import result_digest
from repro.topology import Mesh2D, parse_topology, topology_spec
from repro.traffic import Workload
from repro.traffic.permutations import make_pattern

#: Short windows keep every simulation in these tests cheap.
QUICK = ConfigSpec(warmup_cycles=200, measure_cycles=800, drain_cycles=300)


def quick_config() -> SimulationConfig:
    return QUICK.to_config()


def make_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        topology="mesh:4x4",
        routing="negative-first",
        pattern="transpose",
        load=0.1,
        config=QUICK,
        seed=3,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def results_of(executor, specs):
    """Run bare specs and return their results in input order."""
    points = [PointSpec(spec=s, index=i) for i, s in enumerate(specs)]
    return [run.result for run in executor.run_points(points)]


def hand_built(load, routing="negative-first", pattern="transpose", seed=3):
    """A 4x4-mesh point built from instances through the engine factory."""
    mesh = Mesh2D(4, 4)
    workload = Workload(
        pattern=make_pattern(pattern, mesh), offered_load=load, seed=seed
    )
    return make_simulator(
        make_routing(routing, mesh), workload, quick_config()
    ).run()


class TestConfigSpec:
    def test_defaults_mirror_simulation_config(self):
        spec = ConfigSpec()
        config = SimulationConfig()
        assert spec.to_config().warmup_cycles == config.warmup_cycles
        assert spec.to_config().measure_cycles == config.measure_cycles
        assert spec.output_policy == config.output_policy.name
        assert spec.input_policy == config.input_policy.name

    def test_round_trip(self):
        config = SimulationConfig(
            buffer_depth=2, warmup_cycles=10, measure_cycles=20,
            drain_cycles=5, routing_delay_cycles=2, seed=7,
        )
        rebuilt = ConfigSpec.from_config(config).to_config()
        assert rebuilt.buffer_depth == 2
        assert rebuilt.warmup_cycles == 10
        assert rebuilt.measure_cycles == 20
        assert rebuilt.drain_cycles == 5
        assert rebuilt.routing_delay_cycles == 2
        assert rebuilt.seed == 7
        assert type(rebuilt.output_policy) is type(config.output_policy)

    def test_none_gives_defaults(self):
        assert ConfigSpec.from_config(None) == ConfigSpec()

    def test_custom_policy_rejected(self):
        class WeirdSelection(OutputSelectionPolicy):
            """Not in the registry, but borrows a stock name."""

            name = "xy"

            def select(self, candidates, context):
                return candidates[-1]

        config = SimulationConfig(output_policy=WeirdSelection())
        with pytest.raises(ValueError):
            ConfigSpec.from_config(config)

    def test_total_cycles(self):
        assert QUICK.total_cycles == 1300

    @pytest.mark.parametrize("bad,match", [
        ({"buffer_depth": 0}, "buffer depth"),
        ({"output_policy": "nope"}, "unknown output policy"),
        ({"input_policy": "nope"}, "unknown input policy"),
    ])
    def test_invalid_spec_is_refused_on_construction(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ConfigSpec(**bad)
        payload = make_spec().to_dict()
        payload["config"].update(bad)
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(payload)


class TestExperimentSpec:
    def test_canonicalizes_names(self):
        spec = ExperimentSpec("MESH:4x4", "Negative_First", "Transpose", 0.1)
        assert spec.topology == "mesh:4x4"
        assert spec.routing == "negative-first"
        assert spec.pattern == "transpose"

    def test_alias_spellings_hash_identically(self):
        a = make_spec(routing="negative-first")
        b = make_spec(routing="negative_first")
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_different_points_hash_differently(self):
        assert make_spec(load=0.1).content_hash() != make_spec(load=0.2).content_hash()
        assert make_spec(seed=1).content_hash() != make_spec(seed=2).content_hash()

    def test_dict_round_trip(self):
        spec = make_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # And survives a JSON round trip (tuples become lists).
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_picklable(self):
        spec = make_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_hash_stable_across_processes(self):
        """The cache key must not depend on interpreter state."""
        spec = make_spec()
        code = (
            "from repro.analysis.executor import ConfigSpec, ExperimentSpec\n"
            "spec = ExperimentSpec('mesh:4x4', 'negative-first', 'transpose',"
            " 0.1, config=ConfigSpec(warmup_cycles=200, measure_cycles=800,"
            " drain_cycles=300), seed=3)\n"
            "print(spec.content_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == spec.content_hash()

    def test_run_matches_a_hand_built_simulator(self):
        assert make_spec().run_full().result == hand_built(0.1)


class TestTopologySpecStrings:
    @pytest.mark.parametrize(
        "spec", ["mesh:4x4", "mesh:3x3x3", "cube:5", "torus:4x2", "hex:3x4", "oct:3x3"]
    )
    def test_round_trip(self, spec):
        assert topology_spec(parse_topology(spec)) == spec


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        assert cache.read_entry(spec) == (None, None)
        run = spec.run_full()
        cache.store(run)
        entry, problem = cache.read_entry(spec)
        assert entry.result == run.result and problem is None
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.path_for(spec).write_text("{not json")
        assert cache.read_entry(spec)[0] is None

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        """A hash collision (or tampered file) must not serve wrong data."""
        cache = ResultCache(tmp_path)
        spec = make_spec()
        other = RunResult(spec=make_spec(load=0.999), result=spec.run_full().result)
        cache.path_for(spec).write_text(encode_point_record(other))
        assert cache.read_entry(spec)[0] is None

    def test_store_writes_the_compact_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        run = spec.run_full()
        record = cache.store(run)
        assert record == encode_point_record(run)
        assert cache.path_for(spec).read_text() == record
        assert "\n" not in record and ", " not in record
        entry, _ = cache.read_entry(spec)
        assert entry.result == run.result and entry.record == record

    def test_read_entry_tells_a_miss_from_a_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        assert cache.read_entry(spec) == (None, None)  # no file: a plain miss
        run = spec.run_full()
        whole = cache.store(run)
        entry, problem = cache.read_entry(spec)
        assert entry is not None and problem is None
        malformed = json.loads(whole)
        malformed["result"] = {"nope": 1}
        damaged = {
            "not valid JSON": whole[: len(whole) // 2],
            "holds a different spec": encode_point_record(
                dataclasses.replace(run, spec=make_spec(load=0.999))),
            "malformed result": json.dumps(
                malformed, sort_keys=True, separators=(",", ":")),
        }
        for expected, text in damaged.items():
            cache.path_for(spec).write_text(text)
            assert cache.read_entry(spec) == (None, expected)

    def test_entry_in_the_earlier_indented_layout_still_hits(self, tmp_path):
        """Entries written before the record went compact — indent=2,
        sorted keys, with obs and resilience summaries — are hits: same
        result, same summaries, nothing re-simulated or counted rejected,
        and the manifest embeds the entry as it is on disk."""
        spec = make_spec(
            obs=ObsSpec(), resilience=ResilienceSpec(fault_count=1, fault_seed=2)
        )
        full = spec.run_full()
        assert full.resilience is not None and full.metrics is not None
        earlier = json.dumps(
            {
                "version": SPEC_VERSION,
                "spec": spec.to_dict(),
                "result": result_to_dict(full.result),
                "resilience": full.resilience,
                "obs": full.metrics,
            },
            indent=2,
            sort_keys=True,
        )
        ResultCache(tmp_path / "cache").path_for(spec).write_text(earlier)
        executor = SweepExecutor(
            cache_dir=tmp_path / "cache", manifest_dir=tmp_path / "runs"
        )
        (outcome,) = executor.run_points([PointSpec(spec=spec)])
        metrics = executor.last_metrics
        assert outcome.cached
        assert (metrics.cache_rejected, metrics.cache_hits, metrics.simulated) == (0, 1, 0)
        assert result_digest(outcome.result) == result_digest(full.result)
        assert outcome.metrics == json.loads(json.dumps(full.metrics))
        assert outcome.resilience == json.loads(json.dumps(full.resilience))
        manifest = tmp_path / "runs" / f"manifest-{spec.content_hash()}.json"
        assert earlier in manifest.read_text()


class CountingHooks(ExecutorHooks):
    def __init__(self):
        self.started = 0
        self.done = 0
        self.run_starts = 0
        self.run_ends = []

    def on_run_start(self, total_points):
        self.run_starts += 1

    def on_point_start(self, point):
        self.started += 1

    def on_point_done(self, outcome):
        self.done += 1

    def on_run_end(self, metrics):
        self.run_ends.append(metrics)


LOADS = [0.05, 0.1, 0.15, 0.2]


class TestSweepExecutor:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_run_points_preserves_order(self):
        specs = [make_spec(load=load) for load in LOADS]
        results = results_of(SweepExecutor(), specs)
        assert [r.offered_load for r in results] == LOADS

    def test_parallel_matches_serial(self):
        specs = [make_spec(load=load) for load in LOADS]
        serial = results_of(SweepExecutor(jobs=1), specs)
        parallel = results_of(SweepExecutor(jobs=2), specs)
        assert serial == parallel

    def test_cache_miss_then_hit(self, tmp_path):
        specs = [make_spec(load=load) for load in LOADS]
        cold = SweepExecutor(cache_dir=tmp_path)
        cold_results = results_of(cold, specs)
        assert cold.last_metrics.simulated == len(LOADS)
        assert cold.last_metrics.cache_hits == 0

        warm = SweepExecutor(cache_dir=tmp_path)
        warm_results = results_of(warm, specs)
        assert warm.last_metrics.simulated == 0
        assert warm.last_metrics.cache_hits == len(LOADS)
        assert warm_results == cold_results

    def test_parallel_and_serial_share_cache_entries(self, tmp_path):
        specs = [make_spec(load=load) for load in LOADS]
        results_of(SweepExecutor(jobs=2, cache_dir=tmp_path), specs)
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        results_of(warm, specs)
        assert warm.last_metrics.cache_hits == len(LOADS)

    def test_hooks_fire(self):
        hooks = CountingHooks()
        executor = SweepExecutor(hooks=hooks)
        results_of(executor, [make_spec(load=load) for load in LOADS])
        assert hooks.run_starts == 1
        assert hooks.started == len(LOADS)
        assert hooks.done == len(LOADS)
        assert len(hooks.run_ends) == 1
        assert hooks.run_ends[0].points_completed == len(LOADS)
        assert hooks.run_ends[0].cycles_simulated == len(LOADS) * QUICK.total_cycles

    def test_cache_hits_skip_point_start(self, tmp_path):
        specs = [make_spec(load=load) for load in LOADS]
        results_of(SweepExecutor(cache_dir=tmp_path), specs)
        hooks = CountingHooks()
        results_of(SweepExecutor(cache_dir=tmp_path, hooks=hooks), specs)
        assert hooks.started == 0
        assert hooks.done == len(LOADS)


class TruncatingHooks(ExecutorHooks):
    """Cuts one cache entry in half once the sweep is under way."""

    def __init__(self, victim):
        self.victim = victim
        self.whole = None

    def on_point_done(self, outcome):
        if self.whole is None:
            self.whole = self.victim.read_text()
            self.victim.write_text(self.whole[: len(self.whole) // 2])


class TestCorruptCacheEntry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_truncated_mid_sweep_is_resimulated_and_counted(self, tmp_path, jobs):
        cache_dir, manifests = tmp_path / "cache", tmp_path / "manifests"
        specs = [make_spec(load=load) for load in LOADS]
        reference = results_of(SweepExecutor(cache_dir=cache_dir), specs)
        victim = ResultCache(cache_dir).path_for(specs[2])
        # jobs=1 checks the cache point by point, so the entry is cut
        # after the first point completes; jobs=2 checks every entry up
        # front, so cut it before the run.
        hooks = TruncatingHooks(victim)
        if jobs == 2:
            hooks.on_point_done(None)
        stream = io.StringIO()
        printer = ProgressPrinter(stream)

        class Both(ExecutorHooks):
            def on_point_done(self, outcome):
                hooks.on_point_done(outcome)

            def on_run_end(self, metrics):
                printer.on_run_end(metrics)

        with SweepExecutor(jobs=jobs, cache_dir=cache_dir, hooks=Both(),
                           manifest_dir=manifests) as executor:
            outcomes = executor.run_points(
                [PointSpec(spec=s, index=i) for i, s in enumerate(specs)])
            metrics = executor.last_metrics
        assert [o.result for o in outcomes] == reference
        assert [o.cached for o in outcomes] == [True, True, False, True]
        assert outcomes[2].cache_problem == "not valid JSON"
        assert (metrics.cache_rejected, metrics.cache_hits, metrics.simulated) == (1, 3, 1)
        # The entry was rewritten whole and serves the next run.
        assert json.loads(victim.read_text()) == json.loads(hooks.whole)
        again = SweepExecutor(cache_dir=cache_dir)
        results_of(again, specs)
        assert (again.last_metrics.cache_rejected, again.last_metrics.cache_hits) == (0, 4)
        assert "1 rejected cache entries re-simulated" in stream.getvalue()
        blocks = {m["point"]["index"]: m["executor"] for m in iter_manifests(manifests)}
        assert blocks[2]["cache_problem"] == "not valid JSON"
        assert blocks[0]["cache_problem"] is None

    def test_clean_run_reports_no_rejected_entries(self, tmp_path):
        stream = io.StringIO()
        executor = SweepExecutor(cache_dir=tmp_path, hooks=ProgressPrinter(stream))
        results_of(executor, [make_spec()])
        assert executor.last_metrics.cache_rejected == 0
        assert "rejected" not in stream.getvalue()


class TestSweepThroughExecutor:
    def test_sweep_matches_hand_built_runs(self):
        """Each sweep point is the point an instance-built simulator gives."""
        via_executor = SweepExecutor(jobs=2).sweep(
            "mesh:4x4", "negative-first", "transpose", LOADS,
            config=quick_config(), seed=3,
        )
        by_hand = truncate_at_saturation(
            SweepPoint.from_result(hand_built(load)) for load in LOADS
        )
        assert (via_executor.algorithm, via_executor.pattern) == (
            "negative-first", "transpose"
        )
        assert via_executor.points == by_hand

    def test_sweep_accepts_topology_instance_and_spec_string(self):
        serial = SweepExecutor().sweep(
            Mesh2D(4, 4), "xy", "uniform", LOADS, config=quick_config(), seed=2
        )
        parallel = SweepExecutor(jobs=2).sweep(
            "mesh:4x4", "xy", "uniform", LOADS, config=quick_config(), seed=2,
        )
        assert serial.points == parallel.points

    def test_custom_policy_is_refused(self):
        class WeirdSelection(OutputSelectionPolicy):
            """Unregistered policy: a spec cannot carry it by name."""

            name = "weird"

            def select(self, candidates, context):
                return candidates[0]

        config = SimulationConfig(
            warmup_cycles=200, measure_cycles=800, drain_cycles=300,
            output_policy=WeirdSelection(),
        )
        with pytest.raises(ValueError, match="not the registered one"):
            SweepExecutor().sweep(
                Mesh2D(4, 4), "xy", "uniform", [0.05], config=config, seed=2
            )

    def test_truncation_rule_matches_serial_stop(self):
        points = [
            SweepPoint(0.1, 10.0, 1.0, True, False, 1.0, 3.0),
            SweepPoint(0.2, 20.0, 2.0, False, False, 0.9, 3.0),
            SweepPoint(0.3, 20.0, 9.0, False, False, 0.5, 3.0),
            SweepPoint(0.4, 20.0, 9.0, False, False, 0.4, 3.0),
        ]
        assert truncate_at_saturation(points, 1) == points[:2]
        assert truncate_at_saturation(points, 2) == points[:3]
        assert truncate_at_saturation(points, 9) == points

    SATURATING_LOADS = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8]

    def test_serial_sweep_simulates_nothing_past_the_cut(self):
        executor = SweepExecutor(jobs=1)
        series = executor.sweep(
            "mesh:4x4", "xy", "transpose", self.SATURATING_LOADS,
            config=quick_config(), seed=3,
        )
        assert len(series.points) < len(self.SATURATING_LOADS)
        assert executor.last_metrics.simulated == len(series.points)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_run_ends_once_after_the_cut(self, jobs):
        hooks = CountingHooks()
        executor = SweepExecutor(jobs=jobs, hooks=hooks)
        series = executor.sweep(
            "mesh:4x4", "xy", "transpose", self.SATURATING_LOADS,
            config=quick_config(), seed=3,
        )
        assert hooks.run_starts == 1
        assert hooks.run_ends == [executor.last_metrics]
        simulated = len(series.points) if jobs == 1 else len(self.SATURATING_LOADS)
        assert hooks.done == executor.last_metrics.simulated == simulated

    def test_saturating_sweep_identical_serial_and_parallel(self):
        """Early-stop (lazy) and run-all-then-truncate agree."""
        loads = self.SATURATING_LOADS
        serial = SweepExecutor(jobs=1).sweep(
            "mesh:4x4", "xy", "transpose", loads,
            config=quick_config(), seed=3,
        )
        parallel = SweepExecutor(jobs=2).sweep(
            "mesh:4x4", "xy", "transpose", loads,
            config=quick_config(), seed=3,
        )
        assert serial.points == parallel.points


@pytest.mark.slow
class TestAcceptance:
    """ISSUE 1 acceptance: 16x16 mesh, 3 algorithms, 8 loads, jobs=4."""

    ALGORITHMS = ("xy", "west-first", "negative-first")
    LOADS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
    CONFIG = ConfigSpec(warmup_cycles=100, measure_cycles=400, drain_cycles=200)

    def test_parallel_identical_to_serial_then_all_cache_hits(self, tmp_path):
        config = self.CONFIG.to_config()
        serial = [
            SweepExecutor().sweep(
                Mesh2D(16, 16), algorithm, "transpose", self.LOADS,
                config=config, seed=1, stop_after_saturation=len(self.LOADS),
            )
            for algorithm in self.ALGORITHMS
        ]

        executor = SweepExecutor(jobs=4, cache_dir=tmp_path)
        parallel = [
            executor.sweep(
                "mesh:16x16", algorithm, "transpose", self.LOADS,
                config=config, seed=1, stop_after_saturation=len(self.LOADS),
            )
            for algorithm in self.ALGORITHMS
        ]
        for serial_series, parallel_series in zip(serial, parallel):
            assert serial_series.points == parallel_series.points

        rerun = SweepExecutor(jobs=4, cache_dir=tmp_path)
        total_hits = 0
        for algorithm in self.ALGORITHMS:
            rerun.sweep(
                "mesh:16x16", algorithm, "transpose", self.LOADS,
                config=config, seed=1, stop_after_saturation=len(self.LOADS),
            )
            assert rerun.last_metrics.simulated == 0
            total_hits += rerun.last_metrics.cache_hits
        assert total_hits == len(self.ALGORITHMS) * len(self.LOADS)
