"""JSON persistence for measurement results.

Sweeps at paper scale take minutes; these helpers archive their outputs
so reports can be regenerated, compared across runs, and version
controlled (EXPERIMENTS.md's numbers come from such an archive).  All
round-trips are lossless for the fields the reports use.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Union

from repro.analysis.sweep import SweepPoint, SweepSeries
from repro.obs.envelope import replace_file
from repro.sim.stats import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.figures import FigureResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "series_to_dict",
    "series_from_dict",
    "figure_to_dict",
    "figure_from_dict",
    "sweep_run_to_dict",
    "sweep_run_from_dict",
    "save_json",
    "load_figure",
]


def result_to_dict(result: SimulationResult) -> dict:
    """A SimulationResult as a plain JSON-ready dict."""
    return dataclasses.asdict(result)


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a SimulationResult saved by :func:`result_to_dict`."""
    fields = {f.name for f in dataclasses.fields(SimulationResult)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"unknown SimulationResult fields: {sorted(unknown)}")
    payload = dict(data)
    by_size = payload.get("latency_by_size_cycles")
    if by_size is not None:
        payload["latency_by_size_cycles"] = {
            int(size): value for size, value in by_size.items()
        }
    return SimulationResult(**payload)


def series_to_dict(series: SweepSeries) -> dict:
    """A SweepSeries as a plain dict."""
    return {
        "algorithm": series.algorithm,
        "pattern": series.pattern,
        "points": [dataclasses.asdict(point) for point in series.points],
    }


def series_from_dict(data: dict) -> SweepSeries:
    """Rebuild a SweepSeries saved by :func:`series_to_dict`."""
    return SweepSeries(
        algorithm=data["algorithm"],
        pattern=data["pattern"],
        points=[SweepPoint(**point) for point in data["points"]],
    )


def figure_to_dict(figure) -> dict:
    """A FigureResult as a plain dict."""
    return {
        "figure": figure.figure,
        "title": figure.title,
        "baseline": figure.baseline,
        "series": [series_to_dict(series) for series in figure.series],
    }


def figure_from_dict(data: dict) -> "FigureResult":
    """Rebuild a FigureResult saved by :func:`figure_to_dict`."""
    from repro.experiments.figures import FigureResult

    return FigureResult(
        figure=data["figure"],
        title=data["title"],
        baseline=data["baseline"],
        series=[series_from_dict(series) for series in data["series"]],
    )


def sweep_run_to_dict(
    series_list: "List[SweepSeries]", **metadata: Any
) -> dict:
    """A multi-algorithm sweep run (``repro sweep`` output) as a dict.

    Args:
        series_list: the measured :class:`SweepSeries` objects.
        **metadata: run parameters worth archiving (topology spec,
            pattern, loads, seed, ...); stored verbatim.
    """
    return {
        "kind": "sweep-run",
        "metadata": dict(metadata),
        "series": [series_to_dict(series) for series in series_list],
    }


def sweep_run_from_dict(
    data: dict,
) -> Tuple[List[SweepSeries], Dict[str, Any]]:
    """Rebuild ``(series_list, metadata)`` from :func:`sweep_run_to_dict`."""
    if data.get("kind") != "sweep-run":
        raise ValueError(f"not a sweep-run payload: kind={data.get('kind')!r}")
    series_list = [series_from_dict(series) for series in data["series"]]
    return series_list, dict(data.get("metadata", {}))


def save_json(obj: object, path: Union[str, Path]) -> None:
    """Serialize a result/series/figure (or a prepared dict) to a file."""
    from repro.experiments.figures import FigureResult

    if isinstance(obj, SimulationResult):
        payload = result_to_dict(obj)
    elif isinstance(obj, SweepSeries):
        payload = series_to_dict(obj)
    elif isinstance(obj, FigureResult):
        payload = figure_to_dict(obj)
    elif isinstance(obj, dict):
        payload = obj
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with replace_file(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True))


def load_figure(path: Union[str, Path]) -> "FigureResult":
    """Load a FigureResult archived with :func:`save_json`."""
    return figure_from_dict(json.loads(Path(path).read_text()))
