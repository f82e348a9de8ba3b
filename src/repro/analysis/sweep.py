"""Injection-rate sweeps: the latency-versus-throughput curves.

Each of the paper's performance figures (13-16) plots average latency
against achieved throughput for several routing algorithms as the offered
load rises.  :meth:`repro.analysis.executor.SweepExecutor.sweep` measures
one such series per algorithm; :class:`SweepPoint` holds one
(load, throughput, latency) sample and :class:`SweepSeries` the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sim.stats import SimulationResult

__all__ = [
    "SweepPoint",
    "SweepSeries",
    "default_loads",
    "truncate_at_saturation",
]


@dataclass(frozen=True)
class SweepPoint:
    """One sample of a latency-throughput curve."""

    offered_load: float
    throughput_flits_per_usec: float
    avg_latency_usec: float
    sustainable: bool
    deadlocked: bool
    acceptance_ratio: float
    avg_hops: float

    @classmethod
    def from_result(cls, result: SimulationResult) -> "SweepPoint":
        return cls(
            offered_load=result.offered_load,
            throughput_flits_per_usec=result.throughput_flits_per_usec,
            avg_latency_usec=result.avg_latency_usec,
            sustainable=result.is_sustainable(),
            deadlocked=result.deadlocked,
            acceptance_ratio=result.acceptance_ratio,
            avg_hops=result.avg_hops,
        )


@dataclass
class SweepSeries:
    """A full curve for one routing algorithm."""

    algorithm: str
    pattern: str
    points: List[SweepPoint]

    @property
    def sustainable_throughput(self) -> float:
        """The highest throughput measured at a sustainable load.

        This is the paper's "maximum sustainable throughput": beyond it
        source queues grow without bound.
        """
        sustained = [
            p.throughput_flits_per_usec for p in self.points if p.sustainable
        ]
        return max(sustained) if sustained else 0.0

    @property
    def saturation_throughput(self) -> float:
        """The highest throughput measured anywhere on the curve."""
        if not self.points:
            return 0.0
        return max(p.throughput_flits_per_usec for p in self.points)

    def latency_at(self, load: float) -> Optional[float]:
        """Latency measured at the given offered load, if sampled."""
        for point in self.points:
            if abs(point.offered_load - load) < 1e-12:
                return point.avg_latency_usec
        return None


def default_loads(
    start: float = 0.05, stop: float = 0.6, count: int = 8
) -> List[float]:
    """An evenly spaced grid of offered loads (flits/node/cycle)."""
    if count < 2:
        raise ValueError(f"need at least two load points, got {count}")
    step = (stop - start) / (count - 1)
    return [round(start + i * step, 6) for i in range(count)]


def truncate_at_saturation(
    points: Iterable[SweepPoint], stop_after_saturation: int = 1
) -> List[SweepPoint]:
    """Cut a curve after ``stop_after_saturation`` consecutive
    unsustainable points: the one saturation stop rule.

    ``points`` may be any iterable, and nothing past the cut is pulled
    from it: a serial sweep passes a lazy generator, so the points past
    saturation are never simulated, and a parallel sweep passes every
    load it sampled up front.  Both return identical series.
    """
    kept: List[SweepPoint] = []
    past_saturation = 0
    for point in points:
        kept.append(point)
        if not point.sustainable:
            past_saturation += 1
            if past_saturation >= stop_after_saturation:
                break
        else:
            past_saturation = 0
    return kept
