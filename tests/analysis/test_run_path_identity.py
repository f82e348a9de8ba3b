"""Run-path identity gate (CI): what users run is what the goldens pin.

``make_simulator`` is the one place a simulator is constructed, and it
reads the engine core off the run's inputs.  These tests pin that the
paths users actually take — ``ExperimentSpec.run_full``, ``repro.api.run``
and the sweep executor — reproduce the committed golden digests on the
flat core, fall back to the object core (saying why) exactly when obs or
a live fault schedule needs it, and give the same answer cold or warm,
serial or parallel, in any order.
"""

import dataclasses
import json
import multiprocessing
import random
from pathlib import Path

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    SweepExecutor,
)
from repro.analysis.prewarm import clear_warm_contexts
from repro.api import run
from repro.obs.spec import ObsSpec
from repro.routing.west_first import WestFirstRouting
from repro.sim.digest import result_digest, run_digest
from repro.sim.flatcore import make_simulator

from tests.sim.golden_scenarios import GOLDEN_SCENARIOS, build_scenario

FIXTURE = Path(__file__).parent.parent / "sim" / "golden_digests.json"

#: The golden scenarios an ExperimentSpec can name (registry routing on a
#: spec-string topology, no preload), as (topology, routing, pattern,
#: load, seed, measure, drain, idle fault controller).
SPEC_SCENARIOS = {
    "mesh6-xy-uniform-low": ("mesh:6x6", "xy", "uniform", 0.10, 11, 1200, 400, False),
    "mesh6-west-first-transpose": (
        "mesh:6x6", "west-first", "transpose", 0.30, 12, 1200, 400, False),
    "mesh6-west-first-nofault-resilience": (
        "mesh:6x6", "west-first", "transpose", 0.30, 12, 1200, 400, True),
    "mesh8-negative-first-saturated": (
        "mesh:8x8", "negative-first", "uniform", 0.45, 13, 1500, 500, False),
    "cube5-pcube-uniform": ("cube:5", "p-cube", "uniform", 0.12, 14, 1200, 400, False),
}


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(autouse=True)
def _fresh_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


def _golden_spec(name):
    topology, routing, pattern, load, seed, measure, drain, idle = SPEC_SCENARIOS[name]
    return ExperimentSpec(
        topology=topology, routing=routing, pattern=pattern, load=load,
        sizes=((4, 0.5), (24, 0.5)), seed=seed,
        config=ConfigSpec(warmup_cycles=200, measure_cycles=measure,
                          drain_cycles=drain),
        resilience=ResilienceSpec(fault_count=0) if idle else None,
    )


class TestGoldenScenariosThroughTheFactory:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_factory_runs_flat_and_matches(self, name, fixtures):
        sim, trace = build_scenario(name, simulator_cls=make_simulator)
        assert (sim.core, sim.core_fallback_reason) == ("flat", None)
        assert run_digest(sim.run(), trace) == fixtures[name]["run"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_obs_twin_falls_back_and_matches(self, name, fixtures):
        from repro.obs.metrics import MetricsCollector

        sim, trace = build_scenario(
            name, simulator_cls=make_simulator,
            obs=MetricsCollector(ObsSpec()),
        )
        assert sim.core == "object"
        assert "observability" in sim.core_fallback_reason
        assert run_digest(sim.run(), trace) == fixtures[name]["run"]


class TestGoldenScenariosThroughTheRunPath:
    @pytest.mark.parametrize("name", sorted(SPEC_SCENARIOS))
    def test_run_full_and_api_run(self, name, fixtures):
        spec = _golden_spec(name)
        for out in (spec.run_full(), run(spec)):
            assert (out.core_used, out.core_fallback_reason) == ("flat", None)
            assert result_digest(out.result) == fixtures[name]["result"]

    @pytest.mark.parametrize("name", sorted(SPEC_SCENARIOS))
    def test_obs_twin(self, name, fixtures):
        out = run(_golden_spec(name), obs=True)
        assert out.core_used == "object"
        assert "observability" in out.core_fallback_reason
        assert result_digest(out.result) == fixtures[name]["result"]

    def test_faulted_twin_reports_the_fault_schedule(self):
        spec = dataclasses.replace(
            _golden_spec("mesh6-west-first-transpose"),
            resilience=ResilienceSpec(fault_count=2, fault_seed=5),
        )
        out = spec.run_full()
        assert out.core_used == "object"
        assert "fault schedule" in out.core_fallback_reason

    def test_core_provenance_stays_out_of_hash_cache_key_and_digest(self, tmp_path):
        spec = _golden_spec("mesh6-xy-uniform-low")
        fresh = run(spec, cache_dir=str(tmp_path))
        cached = run(spec, cache_dir=str(tmp_path))
        assert (fresh.core_used, cached.core_used) == ("flat", None)
        assert cached.cached
        assert result_digest(fresh.result) == result_digest(cached.result)
        assert "core" not in spec.canonical_json()
        entry = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert "core_used" not in json.dumps(entry)


def _key_points(routing):
    return [
        PointSpec(
            spec=ExperimentSpec(
                topology="mesh:6x6", routing=routing, pattern="uniform",
                load=load, seed=4, config=ConfigSpec(
                    warmup_cycles=100, measure_cycles=400, drain_cycles=100),
            ),
            series=routing, index=index,
        )
        for index, load in enumerate((0.05, 0.1, 0.2, 0.3, 0.4))
    ]


def _digests_by_load(executor, points):
    return {
        outcome.point.spec.load: result_digest(outcome.result)
        for outcome in executor.run_points(points)
    }


class TestOneKeyAnyOrderAnySchedule:
    """One key's points share one lazily filled table; the order they
    fill it in, and whether they share it at all, must not show."""

    @pytest.mark.parametrize(
        "routing",
        ["west-first", "negative-first-nonminimal", "uncacheable"],
    )
    def test_shuffled_cold_warm_serial_parallel(self, routing, monkeypatch):
        if routing == "uncacheable":
            # No registered algorithm is impure; make one say it is.
            # Pool workers see the patched class only when forked.
            if multiprocessing.get_start_method() != "fork":
                pytest.skip("needs fork to carry the patched class to workers")
            monkeypatch.setattr(WestFirstRouting, "cacheable", False)
            routing = "west-first"
        points = _key_points(routing)
        shuffled = list(points)
        random.Random(12).shuffle(shuffled)
        assert shuffled != points
        with SweepExecutor(jobs=1, warm=False) as executor:
            reference = _digests_by_load(executor, points)
        runs = {}
        for label, jobs, warm, order in (
            ("warm", 1, True, points),
            ("warm-shuffled", 1, True, shuffled),
            ("parallel", 2, True, points),
            ("parallel-shuffled", 2, True, shuffled),
            ("parallel-cold", 2, False, shuffled),
        ):
            clear_warm_contexts()
            with SweepExecutor(jobs=jobs, warm=warm) as executor:
                runs[label] = _digests_by_load(executor, order)
        assert all(digests == reference for digests in runs.values()), runs
