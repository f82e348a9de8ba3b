"""Run-path identity gate (CI): what users run is what the goldens pin.

``make_simulator`` is the one place a simulator is constructed.  These
tests pin that the paths users actually take — ``ExperimentSpec
.run_full``, ``repro.api.run`` and the sweep executor — reproduce the
committed golden digests, with or without a collector or a live fault
schedule, and give the same answer cold or warm, serial or parallel, in
any order.
"""

import dataclasses
import json
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
from repro.sim.digest import result_digest, run_digest
from repro.sim.engine import make_simulator

from tests.sim.golden_scenarios import ALL_SCENARIOS, summary_digest

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
    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_factory_matches(self, name, fixtures):
        sim, trace, *controller = ALL_SCENARIOS[name](simulator_cls=make_simulator)
        assert run_digest(sim.run(), trace) == fixtures[name]["run"]
        if controller:
            ledger = controller[0].stats.summary()
            assert summary_digest(ledger) == fixtures[name]["ledger"]

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_obs_twin_matches(self, name, fixtures):
        from repro.obs.metrics import MetricsCollector

        sim, trace = ALL_SCENARIOS[name](
            simulator_cls=make_simulator, obs=MetricsCollector(ObsSpec()),
        )[:2]
        assert run_digest(sim.run(), trace) == fixtures[name]["run"]


class TestGoldenScenariosThroughTheRunPath:
    @pytest.mark.parametrize("name", sorted(SPEC_SCENARIOS))
    def test_run_full_and_api_run(self, name, fixtures):
        spec = _golden_spec(name)
        for out in (spec.run_full(), run(spec)):
            assert result_digest(out.result) == fixtures[name]["result"]

    @pytest.mark.parametrize("name", sorted(SPEC_SCENARIOS))
    def test_obs_twin(self, name, fixtures):
        out = run(_golden_spec(name), obs=True)
        assert out.metrics["counters"]["delivered_packets"] > 0
        assert result_digest(out.result) == fixtures[name]["result"]

    def test_faulted_point_same_on_every_path(self, tmp_path):
        # A faulted, observed point through run_full, api.run with and
        # without a cache and manifests, and the executor at jobs=1 and
        # jobs=2: one record, apart from how and where it ran.
        spec = dataclasses.replace(
            _golden_spec("mesh6-west-first-transpose"),
            resilience=ResilienceSpec(fault_count=2, fault_seed=5),
            obs=ObsSpec(),
        )
        direct = spec.run_full()
        assert direct.resilience["faults_applied"] == 2
        outs = [run(spec), run(spec, cache_dir=str(tmp_path / "cache"),
                               manifest_dir=str(tmp_path / "manifests"))]
        # A second point beside it, so that jobs=2 really uses the pool.
        points = [PointSpec(spec=spec),
                  PointSpec(spec=_golden_spec("mesh6-xy-uniform-low"))]
        for jobs in (1, 2):
            with SweepExecutor(jobs=jobs) as executor:
                outs.append(executor.run_points(points)[0])

        def numbers(out):
            # recertify_s and degrade_s are host time too: the shares of
            # wall_time_s that went into the proofs and the derivations.
            assert out.wall_time_s >= out.recertify_s > 0
            assert out.wall_time_s >= out.degrade_s > 0
            return dataclasses.replace(
                out, wall_time_s=0.0, recertify_s=0.0, degrade_s=0.0, cached=False,
                series="", index=0, cache_problem=None,
            )

        for out in outs:
            assert not out.cached
            assert numbers(out) == numbers(direct)
            assert result_digest(out.result) == result_digest(direct.result)


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

    @pytest.mark.parametrize("routing", ["west-first", "negative-first-nonminimal"])
    def test_shuffled_cold_warm_serial_parallel(self, routing):
        points = _key_points(routing)
        shuffled = list(points)
        random.Random(12).shuffle(shuffled)
        assert shuffled != points
        # The cold reference: each point on private state, no warm context.
        reference = {
            point.spec.load: result_digest(point.spec.run_full().result)
            for point in points
        }
        runs = {}
        for label, jobs, order in (
            ("warm", 1, points),
            ("warm-shuffled", 1, shuffled),
            ("parallel", 2, points),
            ("parallel-shuffled", 2, shuffled),
        ):
            clear_warm_contexts()
            with SweepExecutor(jobs=jobs) as executor:
                runs[label] = _digests_by_load(executor, order)
        assert all(digests == reference for digests in runs.values()), runs
