"""Drivers for the paper's performance figures (Figures 13-16).

Each driver sweeps the offered load for every algorithm in its figure and
returns a :class:`FigureResult` holding the measured latency-vs-throughput
series, a text rendering, and the headline comparison the paper's prose
makes (sustainable-throughput ratio of the best adaptive algorithm over
the nonadaptive baseline).

* Figure 13 — uniform traffic, 16x16 mesh: xy vs ABONF (west-first),
  ABOPL (north-last), and negative-first.
* Figure 14 — matrix transpose, 16x16 mesh: adaptive sustains ~2x xy.
* Figure 15 — matrix transpose, 8-cube: e-cube vs ABONF, ABOPL, p-cube
  (negative-first): adaptive sustains ~2x e-cube.
* Figure 16 — reverse flip, 8-cube: adaptive sustains ~4x e-cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.executor import SweepExecutor
from repro.analysis.report import render_comparison, render_series_table
from repro.analysis.sweep import SweepSeries
from repro.experiments.presets import Preset, get_preset
from repro.topology.base import Topology

__all__ = [
    "FigureResult",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "MESH_ALGORITHMS",
    "CUBE_ALGORITHMS",
]

#: Section 6's mesh algorithms.  In a 2D mesh, ABONF *is* west-first and
#: ABOPL *is* north-last (Section 4.1); the registry names keep the 2D
#: forms and the figure labels carry both names.
MESH_ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")

#: Section 6's hypercube algorithms; negative-first on a hypercube is
#: p-cube routing (Section 5).
CUBE_ALGORITHMS = ("e-cube", "abonf", "abopl", "p-cube")


@dataclass
class FigureResult:
    """Outcome of one figure reproduction."""

    figure: str
    title: str
    baseline: str
    series: List[SweepSeries]

    def series_by_name(self) -> Dict[str, SweepSeries]:
        return {s.algorithm: s for s in self.series}

    @property
    def baseline_sustainable(self) -> float:
        return self.series_by_name()[self.baseline].sustainable_throughput

    @property
    def baseline_saturation(self) -> float:
        return self.series_by_name()[self.baseline].saturation_throughput

    @property
    def best_adaptive_sustainable(self) -> float:
        return max(
            s.sustainable_throughput
            for s in self.series
            if s.algorithm != self.baseline
        )

    @property
    def best_adaptive_saturation(self) -> float:
        return max(
            s.saturation_throughput
            for s in self.series
            if s.algorithm != self.baseline
        )

    @property
    def adaptive_advantage(self) -> float:
        """Best adaptive saturation throughput over the baseline's.

        The quantity the paper's prose quotes: ~2x for matrix transpose,
        ~4x for reverse flip, and <= ~1x for uniform traffic.  The
        saturation (plateau) throughput is used because the
        queue-boundedness classification quantizes to the sampled load
        grid, while the plateau is what the paper's curves' right edges
        show.
        """
        base = self.baseline_saturation
        if base <= 0:
            return float("inf")
        return self.best_adaptive_saturation / base

    @property
    def adaptive_advantage_sustainable(self) -> float:
        """The same ratio on the (grid-quantized) sustainable metric."""
        base = self.baseline_sustainable
        if base <= 0:
            return float("inf")
        return self.best_adaptive_sustainable / base

    def render(self) -> str:
        parts = [f"=== {self.figure}: {self.title} ==="]
        parts.extend(render_series_table(s) for s in self.series)
        parts.append(render_comparison(self.series, self.baseline))
        parts.append(
            f"adaptive advantage (best adaptive / {self.baseline}): "
            f"{self.adaptive_advantage:.2f}x at saturation, "
            f"{self.adaptive_advantage_sustainable:.2f}x sustainable"
        )
        return "\n\n".join(parts)


def _run_figure(
    figure: str,
    title: str,
    topology: Topology,
    algorithms: Sequence[str],
    pattern: str,
    loads: Sequence[float],
    preset: Preset,
    baseline: str,
    seed: int,
    executor: Optional[SweepExecutor],
    jobs: int,
    cache_dir: Optional[Union[str, Path]],
) -> FigureResult:
    """Sweep every algorithm of one figure.

    An explicit ``executor`` wins and is left open; otherwise one is
    built from ``jobs`` and ``cache_dir`` (the serial, uncached default
    keeps tests deterministic and dependency-free) and closed here, its
    worker pool with it.
    """
    own = executor is None
    if executor is None:
        executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    config = preset.sim_config()
    try:
        series = [
            executor.sweep(
                topology, algorithm, pattern, loads, config=config, seed=seed,
                stop_after_saturation=3,
            )
            for algorithm in algorithms
        ]
    finally:
        if own:
            executor.close()
    return FigureResult(figure=figure, title=title, baseline=baseline, series=series)


def figure13(
    preset: str = "quick",
    seed: int = 1,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: Optional[SweepExecutor] = None,
) -> FigureResult:
    """Figure 13: uniform traffic in the 2D mesh.

    Expected shape: at low load all algorithms are equal; near saturation
    the nonadaptive xy algorithm holds the lowest latency and the highest
    sustainable throughput, because dimension-order routing happens to
    preserve uniform traffic's global evenness.
    """
    p = get_preset(preset)
    return _run_figure(
        "figure-13",
        f"uniform traffic, {p.mesh_side}x{p.mesh_side} mesh",
        p.mesh(),
        MESH_ALGORITHMS,
        "uniform",
        p.loads_mesh_uniform,
        p,
        baseline="xy",
        seed=seed,
        executor=executor,
        jobs=jobs,
        cache_dir=cache_dir,
    )


def figure14(
    preset: str = "quick",
    seed: int = 1,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: Optional[SweepExecutor] = None,
) -> FigureResult:
    """Figure 14: matrix-transpose traffic in the 2D mesh.

    Expected shape: the partially adaptive algorithms (negative-first in
    particular) sustain roughly twice xy's throughput.
    """
    p = get_preset(preset)
    return _run_figure(
        "figure-14",
        f"matrix-transpose traffic, {p.mesh_side}x{p.mesh_side} mesh",
        p.mesh(),
        MESH_ALGORITHMS,
        "transpose",
        p.loads_mesh_transpose,
        p,
        baseline="xy",
        seed=seed,
        executor=executor,
        jobs=jobs,
        cache_dir=cache_dir,
    )


def figure15(
    preset: str = "quick",
    seed: int = 1,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: Optional[SweepExecutor] = None,
) -> FigureResult:
    """Figure 15: matrix-transpose traffic in the hypercube.

    Expected shape: the partially adaptive algorithms sustain roughly
    twice e-cube's throughput.
    """
    p = get_preset(preset)
    return _run_figure(
        "figure-15",
        f"matrix-transpose traffic, {p.cube_dims}-cube",
        p.cube(),
        CUBE_ALGORITHMS,
        "transpose",
        p.loads_cube_transpose,
        p,
        baseline="e-cube",
        seed=seed,
        executor=executor,
        jobs=jobs,
        cache_dir=cache_dir,
    )


def figure16(
    preset: str = "quick",
    seed: int = 1,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: Optional[SweepExecutor] = None,
) -> FigureResult:
    """Figure 16: reverse-flip traffic in the hypercube.

    Expected shape: the partially adaptive algorithms sustain roughly
    four times e-cube's throughput.
    """
    p = get_preset(preset)
    return _run_figure(
        "figure-16",
        f"reverse-flip traffic, {p.cube_dims}-cube",
        p.cube(),
        CUBE_ALGORITHMS,
        "reverse-flip",
        p.loads_cube_reverse_flip,
        p,
        baseline="e-cube",
        seed=seed,
        executor=executor,
        jobs=jobs,
        cache_dir=cache_dir,
    )
