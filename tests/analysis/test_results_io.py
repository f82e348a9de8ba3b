"""Tests for JSON persistence of results."""

import json

import pytest

from repro.analysis.results_io import (
    figure_from_dict,
    figure_to_dict,
    load_figure,
    result_from_dict,
    result_to_dict,
    save_json,
    series_from_dict,
    series_to_dict,
)
from repro.analysis.sweep import SweepPoint, SweepSeries
from repro.api import SimulationConfig, run
from repro.experiments.figures import FigureResult


@pytest.fixture(scope="module")
def sim_result():
    config = SimulationConfig(
        warmup_cycles=200, measure_cycles=800, drain_cycles=300
    )
    return run(topology="mesh:4x4", routing="xy", pattern="uniform",
               load=0.05, config=config).result


def make_series():
    return SweepSeries("xy", "uniform", [
        SweepPoint(0.1, 50.0, 5.0, True, False, 1.0, 4.0),
        SweepPoint(0.2, 90.0, 9.0, False, False, 0.8, 4.1),
    ])


class TestSimulationResultRoundTrip:
    def test_lossless(self, sim_result):
        rebuilt = result_from_dict(result_to_dict(sim_result))
        assert rebuilt == sim_result

    def test_json_clean(self, sim_result):
        json.dumps(result_to_dict(sim_result))

    def test_size_keys_restored_as_ints(self, sim_result):
        data = json.loads(json.dumps(result_to_dict(sim_result)))
        rebuilt = result_from_dict(data)
        assert all(
            isinstance(size, int) for size in rebuilt.latency_by_size_cycles
        )

    def test_unknown_fields_rejected(self, sim_result):
        data = result_to_dict(sim_result)
        data["surprise"] = 1
        with pytest.raises(ValueError):
            result_from_dict(data)


class TestSeriesRoundTrip:
    def test_lossless(self):
        series = make_series()
        rebuilt = series_from_dict(series_to_dict(series))
        assert rebuilt.algorithm == series.algorithm
        assert rebuilt.points == series.points
        assert rebuilt.sustainable_throughput == series.sustainable_throughput


class TestFigureRoundTrip:
    def test_lossless(self, tmp_path):
        figure = FigureResult(
            figure="figure-14", title="t", baseline="xy",
            series=[make_series(), SweepSeries("negative-first", "uniform", [
                SweepPoint(0.1, 100.0, 5.0, True, False, 1.0, 4.0),
            ])],
        )
        rebuilt = figure_from_dict(figure_to_dict(figure))
        assert rebuilt.adaptive_advantage == figure.adaptive_advantage
        assert rebuilt.render() == figure.render()

        path = tmp_path / "fig.json"
        save_json(figure, path)
        assert load_figure(path).render() == figure.render()


class TestSaveJson:
    def test_saves_result(self, sim_result, tmp_path):
        path = tmp_path / "result.json"
        save_json(sim_result, path)
        assert result_from_dict(json.loads(path.read_text())) == sim_result

    def test_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_json(object(), tmp_path / "x.json")
