"""Tests for FigureResult bookkeeping (synthetic series, no simulation)."""

import pytest

from repro.analysis.sweep import SweepPoint, SweepSeries
from repro.experiments.figures import FigureResult


def point(load, thru, sustainable=True):
    return SweepPoint(
        offered_load=load,
        throughput_flits_per_usec=thru,
        avg_latency_usec=10.0,
        sustainable=sustainable,
        deadlocked=False,
        acceptance_ratio=1.0,
        avg_hops=4.0,
    )


def series(name, sustained, plateau):
    return SweepSeries(name, "transpose", [
        point(0.1, sustained),
        point(0.5, plateau, sustainable=False),
    ])


@pytest.fixture
def result():
    return FigureResult(
        figure="figure-x",
        title="synthetic",
        baseline="xy",
        series=[
            series("xy", 100.0, 150.0),
            series("west-first", 150.0, 250.0),
            series("negative-first", 200.0, 300.0),
        ],
    )


class TestFigureResult:
    def test_series_by_name(self, result):
        assert set(result.series_by_name()) == {
            "xy", "west-first", "negative-first"
        }

    def test_baseline_metrics(self, result):
        assert result.baseline_sustainable == 100.0
        assert result.baseline_saturation == 150.0

    def test_best_adaptive_metrics(self, result):
        assert result.best_adaptive_sustainable == 200.0
        assert result.best_adaptive_saturation == 300.0

    def test_advantages(self, result):
        assert result.adaptive_advantage == pytest.approx(2.0)
        assert result.adaptive_advantage_sustainable == pytest.approx(2.0)

    def test_zero_baseline_gives_inf(self):
        broken = FigureResult(
            figure="f", title="t", baseline="xy",
            series=[
                SweepSeries("xy", "p", []),
                series("adaptive", 10.0, 20.0),
            ],
        )
        assert broken.adaptive_advantage == float("inf")

    def test_render_contains_everything(self, result):
        text = result.render()
        assert "figure-x" in text
        assert "synthetic" in text
        assert "vs xy" in text
        assert "adaptive advantage" in text
        assert "2.00x" in text


class TestFigureExecutor:
    """A figure driver closes the executor it builds and leaves a
    caller's open (sweeps stubbed: no simulation)."""

    @pytest.fixture
    def closed(self, monkeypatch):
        from repro.analysis.executor import SweepExecutor

        seen = []
        monkeypatch.setattr(
            SweepExecutor, "sweep",
            lambda self, topology, algorithm, *args, **kwargs:
                series(algorithm, 100.0, 150.0),
        )
        close = SweepExecutor.close

        def recording(self):
            seen.append(self)
            close(self)

        monkeypatch.setattr(SweepExecutor, "close", recording)
        return seen

    def test_driver_closes_the_executor_it_builds(self, closed):
        from repro.experiments import figure14

        result = figure14(preset="quick", jobs=2)
        assert [s.algorithm for s in result.series] == [
            "xy", "west-first", "north-last", "negative-first"]
        (executor,) = closed
        assert executor.jobs == 2

    def test_callers_executor_stays_open(self, closed):
        from repro.analysis.executor import SweepExecutor
        from repro.experiments import figure16

        executor = SweepExecutor(jobs=1)
        result = figure16(preset="quick", executor=executor)
        assert len(result.series) == 4
        assert closed == []
