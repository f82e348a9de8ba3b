"""Tests for load sweeps and curve bookkeeping."""

import dataclasses

import pytest

from repro.analysis.sweep import (
    SweepPoint,
    SweepSeries,
    default_loads,
    sweep_loads,
)
from repro.routing import make_routing
from repro.routing.selection import FCFSInputSelection, XYSelection
from repro.sim import SimulationConfig
from repro.topology import Mesh2D
from repro.topology.faults import FaultyTopology
from repro.traffic import make_pattern


def _point(load, thru, lat, sustainable=True):
    return SweepPoint(
        offered_load=load,
        throughput_flits_per_usec=thru,
        avg_latency_usec=lat,
        sustainable=sustainable,
        deadlocked=False,
        acceptance_ratio=1.0,
        avg_hops=4.0,
    )


class TestSweepSeries:
    def test_sustainable_throughput_is_max_sustained(self):
        series = SweepSeries("xy", "uniform", [
            _point(0.1, 50, 5),
            _point(0.2, 100, 6),
            _point(0.3, 130, 12, sustainable=False),
        ])
        assert series.sustainable_throughput == 100

    def test_saturation_throughput_is_overall_max(self):
        series = SweepSeries("xy", "uniform", [
            _point(0.1, 50, 5),
            _point(0.3, 130, 12, sustainable=False),
        ])
        assert series.saturation_throughput == 130

    def test_no_sustained_points(self):
        series = SweepSeries("xy", "uniform", [
            _point(0.3, 130, 12, sustainable=False),
        ])
        assert series.sustainable_throughput == 0.0

    def test_latency_at(self):
        series = SweepSeries("xy", "uniform", [_point(0.1, 50, 5)])
        assert series.latency_at(0.1) == 5
        assert series.latency_at(0.2) is None


class TestDefaultLoads:
    def test_endpoints(self):
        loads = default_loads(0.1, 0.5, 5)
        assert loads[0] == pytest.approx(0.1)
        assert loads[-1] == pytest.approx(0.5)
        assert len(loads) == 5

    def test_monotone(self):
        loads = default_loads()
        assert loads == sorted(loads)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            default_loads(count=1)


class TestSweepLoads:
    @pytest.fixture(scope="class")
    def quick_config(self):
        return SimulationConfig(
            warmup_cycles=300, measure_cycles=1200, drain_cycles=300
        )

    def test_series_matches_requested_loads(self, quick_config):
        mesh = Mesh2D(4, 4)
        series = sweep_loads(
            mesh, "xy", "uniform", [0.02, 0.05], config=quick_config
        )
        assert [p.offered_load for p in series.points] == [0.02, 0.05]
        assert series.algorithm == "xy"
        assert series.pattern == "uniform"

    def test_stops_after_saturation(self, quick_config):
        mesh = Mesh2D(4, 4)
        series = sweep_loads(
            mesh, "xy", "uniform", [0.05, 0.9, 0.95, 1.0],
            config=quick_config, stop_after_saturation=1,
        )
        # The sweep samples 0.9 (unsustainable) and stops.
        assert len(series.points) <= 3
        assert not series.points[-1].sustainable

    def test_throughput_increases_with_load_before_saturation(self, quick_config):
        mesh = Mesh2D(5, 5)
        series = sweep_loads(
            mesh, "negative-first", "uniform", [0.02, 0.1], config=quick_config
        )
        first, second = series.points
        assert second.throughput_flits_per_usec > first.throughput_flits_per_usec


class _SpyExecutor:
    """Records the sweeps handed to it instead of running them."""

    def __init__(self):
        self.topologies = []

    def sweep(self, topology, algorithm, pattern, loads, **kwargs):
        self.topologies.append(topology)
        return SweepSeries(algorithm, pattern, [])


class _CustomOutput(XYSelection):
    """Borrows the stock name, so only its type gives it away."""


class _CustomInput(FCFSInputSelection):
    """Borrows the stock name, so only its type gives it away."""


class TestSweepPathChoice:
    """``sweep_loads`` hands a sweep to the executor exactly when every
    input can be named in a spec, and runs the direct loop otherwise."""

    CONFIG = SimulationConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=50)

    def _sweep(self, topology, algorithm="xy", pattern="uniform", config=CONFIG):
        spy = _SpyExecutor()
        series = sweep_loads(
            topology, algorithm, pattern, [0.05], config=config, executor=spy
        )
        return spy.topologies, series

    @pytest.mark.parametrize("topology", ["mesh:4x4", Mesh2D(4, 4)])
    def test_names_go_to_the_executor(self, topology):
        assert self._sweep(topology)[0] == ["mesh:4x4"]

    def test_default_config_goes_to_the_executor(self):
        assert self._sweep("mesh:4x4", config=None)[0] == ["mesh:4x4"]

    def test_routing_instance_runs_the_direct_loop(self):
        mesh = Mesh2D(4, 4)
        sent, series = self._sweep(mesh, algorithm=make_routing("xy", mesh))
        assert sent == [] and len(series.points) == 1

    def test_pattern_instance_runs_the_direct_loop(self):
        mesh = Mesh2D(4, 4)
        sent, series = self._sweep(mesh, pattern=make_pattern("uniform", mesh))
        assert sent == [] and len(series.points) == 1

    def test_topology_without_spec_runs_the_direct_loop(self):
        sent, series = self._sweep(FaultyTopology(Mesh2D(4, 4), []))
        assert sent == [] and len(series.points) == 1

    @pytest.mark.parametrize("policy", ["output", "input"])
    def test_custom_policy_runs_the_direct_loop(self, policy):
        config = dataclasses.replace(
            self.CONFIG,
            **({"output_policy": _CustomOutput()} if policy == "output"
               else {"input_policy": _CustomInput()}),
        )
        sent, series = self._sweep(Mesh2D(4, 4), config=config)
        assert sent == [] and len(series.points) == 1
