"""Tests for load sweeps and curve bookkeeping."""

import pytest

from repro.analysis.executor import SweepExecutor
from repro.analysis.sweep import SweepPoint, SweepSeries, default_loads
from repro.sim import SimulationConfig
from repro.topology import Mesh2D
from repro.topology.faults import FaultyTopology


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


class TestSweep:
    @pytest.fixture(scope="class")
    def quick_config(self):
        return SimulationConfig(
            warmup_cycles=300, measure_cycles=1200, drain_cycles=300
        )

    def test_series_matches_requested_loads(self, quick_config):
        mesh = Mesh2D(4, 4)
        series = SweepExecutor().sweep(
            mesh, "xy", "uniform", [0.02, 0.05], config=quick_config
        )
        assert [p.offered_load for p in series.points] == [0.02, 0.05]
        assert series.algorithm == "xy"
        assert series.pattern == "uniform"

    def test_stops_after_saturation(self, quick_config):
        mesh = Mesh2D(4, 4)
        series = SweepExecutor().sweep(
            mesh, "xy", "uniform", [0.05, 0.9, 0.95, 1.0],
            config=quick_config, stop_after_saturation=1,
        )
        # The sweep samples 0.9 (unsustainable) and stops.
        assert len(series.points) <= 3
        assert not series.points[-1].sustainable

    def test_throughput_increases_with_load_before_saturation(self, quick_config):
        mesh = Mesh2D(5, 5)
        series = SweepExecutor().sweep(
            mesh, "negative-first", "uniform", [0.02, 0.1], config=quick_config
        )
        first, second = series.points
        assert second.throughput_flits_per_usec > first.throughput_flits_per_usec

    def test_topology_without_spec_string_is_refused(self, quick_config):
        # A spec names its topology; a faulted mesh has no name, so it
        # runs through the engine factory or a ResilienceSpec instead.
        with pytest.raises(TypeError, match="no spec string"):
            SweepExecutor().sweep(
                FaultyTopology(Mesh2D(4, 4), []), "xy", "uniform", [0.05],
                config=quick_config,
            )
