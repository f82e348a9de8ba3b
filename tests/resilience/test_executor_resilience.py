"""Tests for the executor's resilience plumbing: specs, cache, outcomes."""

import random

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    ResultCache,
    SweepExecutor,
)
from repro.analysis.prewarm import clear_warm_contexts
from repro.experiments.presets import get_fault_sweep_preset
from repro.sim.digest import result_digest

from tests.resilience.test_degrade_pins import PINNED, faulted_spec
from tests.sim.golden_scenarios import summary_digest

BASE = dict(
    topology="mesh:6x6",
    routing="west-first-nonminimal",
    pattern="uniform",
    load=0.08,
    sizes=((4, 1.0),),
    seed=5,
)

FAST = dict(warmup_cycles=100, measure_cycles=600, drain_cycles=400)


def quick_preset_specs():
    """The cells of ``repro resilience --preset quick``."""
    preset = get_fault_sweep_preset("quick")
    config = ConfigSpec.from_config(preset.sim_config())
    return [
        ExperimentSpec(
            topology=preset.topology(), routing=name, pattern=preset.pattern,
            load=preset.load, config=config,
            resilience=ResilienceSpec(fault_count=count, fault_seed=1 + count,
                                      policy=preset.policy) if count else None,
        )
        for name in preset.algorithms
        for count in preset.fault_counts
    ]


def fast_spec(**kwargs):
    from repro.sim.config import SimulationConfig

    config = ConfigSpec.from_config(SimulationConfig(**FAST))
    return ExperimentSpec(config=config, **BASE, **kwargs)


class TestResilienceSpec:
    def test_policy_canonicalized(self):
        assert ResilienceSpec(policy="  DROP ").policy == "drop"

    def test_window_coerced_to_int_tuple(self):
        spec = ResilienceSpec(window=[10.0, 50.0])
        assert spec.window == (10, 50)

    def test_negative_fault_count_rejected(self):
        with pytest.raises(ValueError):
            ResilienceSpec(fault_count=-1)

    def test_defaults(self):
        spec = ResilienceSpec()
        assert spec.fault_count == 0
        assert spec.policy == "drop"
        assert spec.recertify
        assert spec.require_connected


class TestSpecSerialization:
    def test_none_resilience_omitted_from_dict(self):
        # Hash stability: a spec without resilience serializes exactly as
        # before the field existed, so cached results stay addressable.
        spec = fast_spec()
        assert "resilience" not in spec.to_dict()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_resilience_round_trip(self):
        spec = fast_spec(
            resilience=ResilienceSpec(
                fault_count=3, fault_seed=7, policy="retransmit", window=(50, 400)
            )
        )
        payload = spec.to_dict()
        assert payload["resilience"]["fault_count"] == 3
        assert payload["resilience"]["window"] == [50, 400]
        restored = ExperimentSpec.from_dict(payload)
        assert restored == spec
        assert restored.resilience.window == (50, 400)

    def test_hash_differs_with_resilience(self):
        plain = fast_spec()
        faulted = fast_spec(resilience=ResilienceSpec(fault_count=3))
        assert plain.content_hash() != faulted.content_hash()


class TestRunFullLedger:
    def test_plain_spec_has_no_extras(self):
        full = fast_spec().run_full()
        assert full.resilience is None
        assert full.result == fast_spec().run_full().result

    def test_faulted_spec_returns_summary(self):
        spec = fast_spec(
            resilience=ResilienceSpec(fault_count=3, fault_seed=4)
        )
        extras = spec.run_full().resilience
        assert extras is not None
        assert extras["faults_applied"] == 3
        assert extras["recertifications"] > 0
        assert 0.0 < extras["delivered_fraction"] <= 1.0

    def test_zero_fault_resilience_spec_matches_plain(self):
        # A 0-fault resilience run takes the fault path with an empty
        # schedule and must be bit-identical to the plain path.
        spec = fast_spec(resilience=ResilienceSpec(fault_count=0))
        full = spec.run_full()
        assert full.result == fast_spec().run_full().result
        assert full.resilience["faults_applied"] == 0


class TestCacheExtras:
    def test_extras_round_trip(self, tmp_path):
        spec = fast_spec(resilience=ResilienceSpec(fault_count=2, fault_seed=3))
        full = spec.run_full()
        cache = ResultCache(tmp_path)
        cache.store(full)
        loaded, problem = cache.read_entry(spec)
        assert loaded is not None and problem is None
        assert loaded.result == full.result
        assert loaded.resilience == full.resilience

    def test_plain_store_loads_none_extras(self, tmp_path):
        spec = fast_spec()
        full = spec.run_full()
        cache = ResultCache(tmp_path)
        cache.store(full)
        loaded, _ = cache.read_entry(spec)
        assert loaded.result == full.result
        assert loaded.resilience is None

    def test_executor_outcome_carries_resilience(self, tmp_path):
        spec = fast_spec(resilience=ResilienceSpec(fault_count=2, fault_seed=3))
        point = PointSpec(spec=spec, series="west-first-nonminimal", index=2)
        executor = SweepExecutor(cache_dir=tmp_path)
        (fresh,) = executor.run_points([point])
        assert fresh.resilience is not None
        assert not fresh.cached
        (cached,) = executor.run_points([point])
        assert cached.cached
        assert cached.resilience == fresh.resilience
        assert cached.result == fresh.result


class TestFaultedPointsRunWarm:
    """A faulted point shares its key's warm context: the healthy table
    and the healthy proof on it.  Whether it does, which point of the key
    takes the proof, and which worker runs it must not show."""

    def test_cold_shuffled_serial_parallel_agree(self):
        specs = quick_preset_specs() + [faulted_spec(*case) for case in sorted(PINNED)]
        points = [PointSpec(spec=spec, index=i) for i, spec in enumerate(specs)]
        shuffled = list(points)
        random.Random(32).shuffle(shuffled)

        def digests(outcomes):
            return {
                o.point.index: (
                    result_digest(o.result),
                    summary_digest(o.resilience) if o.resilience else None,
                )
                for o in outcomes
            }

        runs = {}
        clear_warm_contexts()
        try:
            # The cold reference: every point on private state.
            runs["cold"] = {
                point.index: (
                    result_digest(full.result),
                    summary_digest(full.resilience) if full.resilience else None,
                )
                for point in points
                for full in [point.spec.run_full()]
            }
            for label, jobs, order in (
                ("shuffled", 1, shuffled), ("jobs=1", 1, points), ("jobs=2", 2, points),
            ):
                clear_warm_contexts()
                with SweepExecutor(jobs=jobs) as executor:
                    outcomes = executor.run_points(order)
                    assert executor.last_metrics.warm_points == len(points)
                runs[label] = digests(outcomes)
        finally:
            clear_warm_contexts()
        assert all(run == runs["cold"] for run in runs.values()), runs
        offset = len(specs) - len(PINNED)
        for i, case in enumerate(sorted(PINNED)):
            assert runs["cold"][offset + i] == PINNED[case]
