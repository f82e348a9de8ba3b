"""Tests for the ``repro.api`` facade."""

import inspect

import pytest

import repro.api as api


class TestExports:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_documented(self):
        for name in api.__all__:
            obj = getattr(api, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"repro.api.{name} lacks a docstring"

    @pytest.mark.parametrize(
        "name",
        [
            "ExperimentSpec",
            "SweepExecutor",
            "run",
            "make_routing",
            "make_pattern",
            "parse_topology",
        ],
    )
    def test_issue_required_names(self, name):
        assert hasattr(api, name)


class TestFacadeBehavior:
    def test_spec_end_to_end(self):
        spec = api.ExperimentSpec(
            topology="mesh:4x4",
            routing="xy",
            pattern="uniform",
            load=0.05,
            config=api.ConfigSpec(
                warmup_cycles=100, measure_cycles=400, drain_cycles=100
            ),
        )
        assert api.topology_spec(api.parse_topology(spec.topology)) == "mesh:4x4"
        result = api.run(spec).result
        assert result.offered_load == pytest.approx(0.05)

    def test_run_accepts_alias_names(self):
        out = api.run(
            topology=api.parse_topology("mesh:4x4"),
            routing="negative_first",
            pattern="transpose",
            load=0.05,
            config=api.SimulationConfig(
                warmup_cycles=100, measure_cycles=400, drain_cycles=100
            ),
        )
        assert out.result.total_delivered >= 0
        assert out.spec.routing == "negative-first"
