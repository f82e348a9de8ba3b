"""The `repro.api.run` facade (and the retired shims that preceded it).

The facade contract: one keyword-only entry point covering every run
path (plain / obs / resilience / cached), returning the same RunResult
shape everywhere; the pre-facade entry points it replaced are gone, and
so are the second run paths beside it.
"""

import pytest

import repro.analysis
import repro.sim
from repro import api
from repro.analysis.executor import ExperimentSpec
from repro.core.restrictions import fully_adaptive
from repro.obs.spec import ObsSpec
from repro.routing import TurnRestrictionRouting
from repro.sim.digest import result_digest
from repro.topology.mesh import Mesh2D


def _spec(**overrides):
    fields = dict(
        topology="mesh:4x4",
        routing="west-first",
        pattern="uniform",
        load=0.1,
        sizes=((4, 1.0),),
        config=api.ConfigSpec(warmup_cycles=50, measure_cycles=200, drain_cycles=100),
        seed=3,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestRunFacade:
    def test_spec_path_matches_run_full(self):
        spec = _spec()
        assert api.run(spec).result == spec.run_full().result

    def test_keyword_path_builds_equivalent_spec(self):
        spec = _spec()
        out = api.run(
            topology="mesh:4x4",
            routing="west-first",
            pattern="uniform",
            load=0.1,
            sizes=((4, 1.0),),
            config=spec.config,
            seed=3,
        )
        assert out.spec == spec
        assert out.result == spec.run_full().result

    def test_topology_instance_accepted(self):
        by_name = api.run(_spec())
        by_instance = api.run(
            topology=Mesh2D(4, 4),
            routing="west-first",
            pattern="uniform",
            load=0.1,
            sizes=((4, 1.0),),
            config=_spec().config,
            seed=3,
        )
        assert by_instance.spec == by_name.spec
        assert by_instance.result == by_name.result

    @pytest.mark.parametrize(
        "routing",
        [
            # A stock algorithm built for another mesh size.
            api.make_routing("xy", Mesh2D(4, 4)),
            # A custom relation that borrows a registry name.
            TurnRestrictionRouting(
                Mesh2D(4, 4), fully_adaptive(2), minimal=True,
                name="west-first",
            ),
        ],
        ids=["xy-4x4", "custom-west-first"],
    )
    def test_routing_instance_is_refused(self, routing):
        # A spec carries the routing by name only, so running an
        # instance would silently swap in the registry's algorithm.
        with pytest.raises(TypeError, match="make_simulator"):
            api.run(topology="mesh:4x4", routing=routing, pattern="uniform",
                    load=0.1)

    def test_obs_true_collects_and_stays_bit_invisible(self):
        plain = api.run(_spec())
        observed = api.run(_spec(), obs=True)
        assert observed.spec.obs == ObsSpec()
        assert observed.metrics is not None
        assert observed.metrics["counters"]["delivered_packets"] > 0
        assert observed.result == plain.result
        assert result_digest(observed.result) == result_digest(plain.result)

    def test_obs_spec_and_false_override_spec(self):
        tuned = ObsSpec(sample_every=2, timeline_window=64)
        out = api.run(_spec(), obs=tuned)
        assert out.spec.obs == tuned
        stripped = api.run(_spec(obs=tuned), obs=False)
        assert stripped.spec.obs is None
        assert stripped.metrics is None

    def test_config_accepts_simulation_config(self):
        config = api.SimulationConfig(
            warmup_cycles=50, measure_cycles=200, drain_cycles=100
        )
        out = api.run(
            topology="mesh:4x4",
            routing="west-first",
            pattern="uniform",
            load=0.1,
            sizes=((4, 1.0),),
            config=config,
            seed=3,
        )
        assert out.spec == _spec()

    def test_uncached_run_reports_its_wall_time(self, tmp_path):
        # A fresh point is timed whether or not a cache is in play; 0.0
        # is what a cache hit reports.
        for out in (api.run(_spec()), api.run(_spec(), cache_dir=str(tmp_path))):
            assert out.cached is False
            assert out.wall_time_s > 0

    def test_cache_dir_round_trip(self, tmp_path):
        spec = _spec()
        first = api.run(spec, cache_dir=str(tmp_path))
        second = api.run(spec, cache_dir=str(tmp_path))
        assert not first.cached
        assert second.cached
        assert second.result == first.result

    def test_manifest_dir_writes_loadable_manifest(self, tmp_path):
        spec = _spec(obs=ObsSpec())
        api.run(spec, manifest_dir=str(tmp_path))
        path = tmp_path / f"manifest-{spec.content_hash()}.json"
        manifest = api.load_manifest(path)
        assert manifest["spec_hash"] == spec.content_hash()
        assert manifest["metrics"] is not None

    def test_spec_plus_point_fields_is_an_error(self):
        with pytest.raises(TypeError, match="both a spec and point fields"):
            api.run(_spec(), topology="mesh:8x8")
        with pytest.raises(TypeError, match="seed"):
            api.run(_spec(), seed=7)

    def test_missing_point_fields_is_an_error(self):
        with pytest.raises(TypeError, match="pattern"):
            api.run(topology="mesh:4x4", routing="xy", load=0.1)

    def test_positional_non_spec_is_an_error(self):
        with pytest.raises(TypeError, match="keyword"):
            api.run("mesh:4x4")

    def test_point_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            api.run("mesh:4x4", "xy", "uniform", 0.1)  # noqa: E501 - intentional misuse


class TestRunPoints:
    """What a named point may vary, checked through the one run path."""

    QUICK = api.ConfigSpec(warmup_cycles=200, measure_cycles=1000, drain_cycles=300)

    def _run(self, **fields):
        point = dict(topology="mesh:4x4", routing="xy", pattern="uniform",
                     load=0.05, config=self.QUICK)
        point.update(fields)
        return api.run(**point).result

    @pytest.mark.parametrize("field, name", [("routing", "warp-speed"),
                                             ("pattern", "chaos")])
    def test_unknown_name_rejected(self, field, name):
        with pytest.raises(ValueError):
            self._run(**{field: name})

    def test_seed_changes_traffic(self):
        a = self._run(load=0.1, seed=1)
        b = self._run(load=0.1, seed=2)
        assert result_digest(a) != result_digest(b)

    def test_cube_pattern_dispatch(self):
        result = self._run(topology="cube:4", routing="p-cube",
                           pattern="reverse-flip")
        assert result.total_delivered > 0
        assert not result.deadlocked

    def test_custom_sizes(self):
        result = self._run(sizes=((7, 1.0),))
        assert result.total_delivered > 0
        assert set(result.latency_by_size_cycles) <= {7}


class TestRetiredShims:
    @pytest.mark.parametrize(
        "name",
        ["simulate", "sweep_loads", "run_spec", "resolve_spec", "ResolvedSpec",
         "PointOutcome"],
    )
    def test_pre_facade_entry_points_are_gone(self, name):
        # api.run replaces the run wrappers, and RunResult is the one
        # per-point record.
        assert not hasattr(api, name)
        assert name not in api.__all__

    def test_one_run_method_and_one_cache_reader(self):
        assert not hasattr(api.ExperimentSpec, "run")
        assert not hasattr(api.ExperimentSpec, "resolve")
        assert not hasattr(api.ResultCache, "load")
        assert not hasattr(api.ResultCache, "load_entry")

    def test_one_run_path(self):
        assert not hasattr(repro.sim, "simulate")
        assert not hasattr(repro.analysis, "sweep_loads")
        assert not hasattr(repro.analysis, "find_sustainable_load")
        assert not hasattr(api.SweepExecutor, "run_specs")

        spec = _spec()
        reference = api.run(spec).result
        point = api.SweepExecutor().sweep(
            spec.topology, "west-first", "uniform", [0.1],
            sizes=api.SizeDistribution(((4, 1.0),)),
            config=spec.config.to_config(), seed=3,
        ).points[0]
        assert point == api.SweepPoint.from_result(reference)
