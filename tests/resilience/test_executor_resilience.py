"""Tests for the executor's resilience plumbing: specs, cache, outcomes."""

import dataclasses

import pytest

from repro.analysis.executor import (
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    ResultCache,
    SweepExecutor,
)

BASE = dict(
    topology="mesh:6x6",
    routing="west-first-nonminimal",
    pattern="uniform",
    load=0.08,
    sizes=((4, 1.0),),
    seed=5,
)

FAST = dict(warmup_cycles=100, measure_cycles=600, drain_cycles=400)


def fast_spec(**kwargs):
    from repro.analysis.executor import ConfigSpec
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
        assert full.result == fast_spec().run()

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
        assert full.result == fast_spec().run()
        assert full.resilience["faults_applied"] == 0


class TestCacheExtras:
    def test_extras_round_trip(self, tmp_path):
        spec = fast_spec(resilience=ResilienceSpec(fault_count=2, fault_seed=3))
        full = spec.run_full()
        result, extras = full.result, full.resilience
        cache = ResultCache(tmp_path)
        cache.store(spec, result, extras=extras)
        loaded = cache.load_entry(spec)
        assert loaded is not None
        assert loaded.result == result
        assert loaded.resilience == extras

    def test_plain_store_loads_none_extras(self, tmp_path):
        spec = fast_spec()
        result = spec.run()
        cache = ResultCache(tmp_path)
        cache.store(spec, result)
        assert cache.load(spec) == result
        assert cache.load_entry(spec).resilience is None

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
