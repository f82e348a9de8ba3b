"""Injection-rate sweeps: the latency-versus-throughput curves.

Each of the paper's performance figures (13-16) plots average latency
against achieved throughput for several routing algorithms as the offered
load rises.  :func:`sweep_loads` produces one such series per algorithm;
:class:`SweepPoint` holds one (load, throughput, latency) sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_routing
from repro.routing.selection import is_registered_policy
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.stats import SimulationResult
from repro.topology.base import Topology
from repro.topology.spec import has_topology_spec, parse_topology, topology_spec
from repro.traffic.patterns import TrafficPattern
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution

if TYPE_CHECKING:
    from repro.analysis.executor import SweepExecutor

__all__ = [
    "SweepPoint",
    "SweepSeries",
    "sweep_loads",
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


def _nameable(
    topology: Union[str, Topology],
    algorithm: Union[str, RoutingAlgorithm],
    pattern: Union[str, TrafficPattern],
    config: Optional[SimulationConfig],
) -> bool:
    """Whether a sweep's inputs can be carried by name in an
    :class:`~repro.analysis.executor.ExperimentSpec`: registry names, a
    topology with a spec string, and registered selection policies.
    Anything else cannot cross a process boundary or key the cache."""
    return (
        isinstance(algorithm, str)
        and isinstance(pattern, str)
        and (isinstance(topology, str) or has_topology_spec(topology))
        and (
            config is None
            or (
                is_registered_policy(config.output_policy)
                and is_registered_policy(config.input_policy)
            )
        )
    )


def sweep_loads(
    topology: Union[str, Topology],
    algorithm: Union[str, RoutingAlgorithm],
    pattern: Union[str, TrafficPattern],
    loads: Sequence[float],
    config: Optional[SimulationConfig] = None,
    sizes: SizeDistribution = PAPER_SIZES,
    seed: int = 1,
    stop_after_saturation: int = 1,
    executor: Optional["SweepExecutor"] = None,
) -> SweepSeries:
    """Measure one latency-throughput curve.

    When ``algorithm`` and ``pattern`` are registry names (and the
    topology has a spec string), the sweep routes through a
    :class:`~repro.analysis.executor.SweepExecutor` — by default an
    in-process serial one, so tests stay deterministic; pass an executor
    with ``jobs > 1`` and/or a cache directory to fan points out over
    worker processes and reuse earlier results.  Instances fall back to
    the direct in-process loop (they cannot be pickled to workers or
    content-hashed for the cache).

    Args:
        topology: the network (instance or spec string like
            ``"mesh:16x16"``).
        algorithm: routing algorithm (instance or registry name).
        pattern: traffic pattern (instance or name).
        loads: offered loads to sample, ascending.
        config: simulator configuration shared by every point.
        sizes: packet size distribution.
        seed: workload seed (same for every point, so curves differ only
            in load).
        stop_after_saturation: how many consecutive unsustainable points
            to sample past saturation before stopping the sweep (they
            chart the latency blow-up; more adds detail but costs time).
        executor: the execution engine to route through; ``None`` uses a
            serial, uncached one.

    Returns:
        The measured series.
    """
    if _nameable(topology, algorithm, pattern, config):
        from repro.analysis.executor import SweepExecutor

        if executor is None:
            executor = SweepExecutor()
        return executor.sweep(
            topology if isinstance(topology, str) else topology_spec(topology),
            algorithm,
            pattern,
            loads,
            config=config,
            sizes=sizes,
            seed=seed,
            stop_after_saturation=stop_after_saturation,
        )

    if isinstance(topology, str):
        topology = parse_topology(topology)
    if isinstance(algorithm, str):
        algorithm = make_routing(algorithm, topology)
    if isinstance(pattern, str):
        pattern = make_pattern(pattern, topology)
    sampled = (
        SweepPoint.from_result(
            simulate(
                topology,
                algorithm,
                pattern,
                offered_load=load,
                sizes=sizes,
                config=config,
                seed=seed,
            )
        )
        for load in loads
    )
    return SweepSeries(
        algorithm.name,
        pattern.name,
        truncate_at_saturation(sampled, stop_after_saturation),
    )
