"""Fault sweeps: delivered fraction vs. escalating fault counts.

The paper's opening case for adaptive routing is that adaptiveness
"provides alternative paths for packets that encounter faulty hardware"
(Section 1).  :func:`fault_sweep` turns that claim into a measurement:
the same workload runs under the same seed-derived fault schedules for
several routing algorithms, and the resulting table shows the fraction
of messages each algorithm still delivers as the number of runtime link
failures grows — the nonminimal turn-table router keeps delivering
where dimension-order xy strands packets.

Sweeps route through the PR 1 :class:`~repro.analysis.executor
.SweepExecutor`, so points parallelize across processes and cache on
disk like every other experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    RunResult,
    SweepExecutor,
)
from repro.obs.spec import ObsSpec
from repro.sim.config import SimulationConfig
from repro.sim.stats import SimulationResult
from repro.topology.base import Topology
from repro.topology.spec import topology_spec
from repro.traffic.workload import PAPER_SIZES, SizeDistribution

__all__ = ["FaultSweepCell", "FaultSweepResult", "fault_sweep", "render_fault_table"]


@dataclass(frozen=True)
class FaultSweepCell:
    """One (algorithm, fault count) measurement.

    Attributes:
        algorithm: routing algorithm registry name.
        fault_count: runtime link failures injected.
        result: the run's :class:`SimulationResult`.
        resilience: the run's resilience summary (``None`` only for the
            zero-fault baseline cells, which run the plain engine path).
        wall_time_s, recertify_s, degrade_s: host seconds the cell took,
            and the shares spent certifying and deriving degraded tables
            (``None`` for baseline cells and cache hits); all stay out of
            ``to_dict``.
    """

    algorithm: str
    fault_count: int
    result: SimulationResult
    resilience: Optional[dict]
    wall_time_s: float = 0.0
    recertify_s: Optional[float] = None
    degrade_s: Optional[float] = None

    @property
    def delivered_fraction(self) -> float:
        """Messages delivered over messages created."""
        if self.resilience is not None:
            return self.resilience["delivered_fraction"]
        # Zero-fault baseline: nothing is ever dropped; undelivered
        # messages are merely still in flight or queued at drain end.
        created = max(1, self.result.total_injected)
        return self.result.total_delivered / created


@dataclass(frozen=True)
class FaultSweepResult:
    """A complete fault sweep: algorithms x fault counts.

    Attributes:
        topology: topology spec string the sweep ran on.
        pattern: traffic pattern name.
        load: offered load (flits per node per cycle).
        fault_counts: the escalation axis, ascending.
        cells: every measurement, grouped by algorithm then fault count.
    """

    topology: str
    pattern: str
    load: float
    fault_counts: Tuple[int, ...]
    cells: Tuple[FaultSweepCell, ...]

    def cell(self, algorithm: str, fault_count: int) -> FaultSweepCell:
        """The measurement for one (algorithm, fault count) pair."""
        for cell in self.cells:
            if cell.algorithm == algorithm and cell.fault_count == fault_count:
                return cell
        raise KeyError(f"no cell for {algorithm!r} at {fault_count} faults")

    def algorithms(self) -> List[str]:
        """The algorithms measured, in first-seen order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.algorithm not in seen:
                seen.append(cell.algorithm)
        return seen

    def to_dict(self) -> dict:
        """A JSON-ready summary (results flattened to key metrics)."""
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "load": self.load,
            "fault_counts": list(self.fault_counts),
            "cells": [
                {
                    "algorithm": cell.algorithm,
                    "fault_count": cell.fault_count,
                    "delivered_fraction": cell.delivered_fraction,
                    "avg_latency_cycles": cell.result.avg_latency_cycles,
                    "total_delivered": cell.result.total_delivered,
                    "deadlocked": cell.result.deadlocked,
                    "resilience": cell.resilience,
                }
                for cell in self.cells
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The summary as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def fault_sweep(
    topology: Union[str, Topology],
    algorithms: Sequence[str],
    pattern: str,
    load: float,
    fault_counts: Sequence[int],
    *,
    config: Optional[SimulationConfig] = None,
    sizes: SizeDistribution = PAPER_SIZES,
    seed: int = 1,
    fault_seed: int = 1,
    policy: str = "drop",
    heal_after: Optional[int] = None,
    recertify: bool = True,
    require_connected: bool = True,
    executor: Optional[SweepExecutor] = None,
    obs: Optional[ObsSpec] = None,
) -> FaultSweepResult:
    """Measure delivered fraction for each algorithm under each fault count.

    At a given fault count every algorithm faces the *same* seed-derived
    fault schedule (the schedule seed is ``fault_seed + fault_count``,
    independent of the algorithm), so differences in delivered fraction
    are attributable to routing alone.  A fault count of 0 runs the
    plain engine path as the healthy baseline.

    Args:
        topology: the healthy network, as an instance or a spec string.
        algorithms: routing registry names to compare.
        pattern: traffic pattern name.
        load: offered load in flits per node per cycle.
        fault_counts: escalation axis (any order; reported ascending).
        config: simulator knobs; library defaults when omitted.
        sizes: packet-size distribution.
        seed: workload RNG seed.
        fault_seed: base seed the per-count schedule seeds derive from.
        policy: recovery policy name for casualties.
        heal_after: cycles until each fault heals; ``None`` = permanent.
        recertify: certify each degraded configuration deadlock-free.
        require_connected: keep the fully degraded topology strongly
            connected (resampling the fault set, bounded).
        executor: the :class:`SweepExecutor` to run through; a fresh
            serial, uncached one when omitted.
        obs: optional :class:`~repro.obs.spec.ObsSpec`; every cell then
            collects channel/latency/timeline metrics (bit-invisible to
            results) — pair with an executor whose ``manifest_dir`` is
            set to persist them for ``repro report``.
    """
    spec_string = (
        topology if isinstance(topology, str) else topology_spec(topology)
    )
    counts = tuple(sorted(set(int(count) for count in fault_counts)))
    config_spec = ConfigSpec.from_config(config)
    points: List[PointSpec] = []
    for algorithm in algorithms:
        for count in counts:
            resilience = (
                ResilienceSpec(
                    fault_count=count,
                    fault_seed=fault_seed + count,
                    policy=policy,
                    heal_after=heal_after,
                    recertify=recertify,
                    require_connected=require_connected,
                )
                if count > 0
                else None
            )
            points.append(
                PointSpec(
                    spec=ExperimentSpec(
                        topology=spec_string,
                        routing=algorithm,
                        pattern=pattern,
                        load=load,
                        sizes=sizes.choices,
                        config=config_spec,
                        seed=seed,
                        resilience=resilience,
                        obs=obs,
                    ),
                    series=algorithm,
                    index=count,
                )
            )
    if executor is not None:
        runs: List[RunResult] = executor.run_points(points)
    else:
        # A self-created executor owns its worker pool; close it (via the
        # context manager) rather than leaking workers to the GC.
        with SweepExecutor() as runner:
            runs = runner.run_points(points)
    cells = tuple(
        FaultSweepCell(
            algorithm=run.series,
            fault_count=run.index,
            result=run.result,
            resilience=run.resilience,
            wall_time_s=run.wall_time_s,
            recertify_s=run.recertify_s,
            degrade_s=run.degrade_s,
        )
        for run in runs
    )
    first = points[0].spec
    return FaultSweepResult(
        topology=spec_string,
        pattern=first.pattern,
        load=load,
        fault_counts=counts,
        cells=cells,
    )


def render_fault_table(sweep: FaultSweepResult) -> str:
    """The sweep as a fixed-width text table (delivered fractions).

    One row per algorithm, one column per fault count — the shape of the
    paper's comparison tables.
    """
    counts = sweep.fault_counts
    algorithms = sweep.algorithms()
    label_width = max(len("algorithm"), *(len(name) for name in algorithms))
    header = "algorithm".ljust(label_width) + "".join(
        f"  {f'{count} faults':>10}" for count in counts
    )
    lines = [
        f"delivered fraction on {sweep.topology} "
        f"({sweep.pattern}, load {sweep.load:g})",
        header,
        "-" * len(header),
    ]
    for algorithm in algorithms:
        row = algorithm.ljust(label_width)
        for count in counts:
            cell = sweep.cell(algorithm, count)
            mark = "*" if cell.result.deadlocked else ""
            row += f"  {cell.delivered_fraction:>9.4f}{mark or ' '}"
        lines.append(row.rstrip())
    if any(cell.result.deadlocked for cell in sweep.cells):
        lines.append("(* = run flagged deadlocked)")
    proved = [cell for cell in sweep.cells if cell.recertify_s is not None]
    if proved:
        proofs = sum(cell.resilience["recertifications"] for cell in proved)
        lines.append(
            f"recertification: {proofs} proofs, "
            f"{sum(cell.recertify_s for cell in proved):.2f} s of "
            f"{sum(cell.wall_time_s for cell in sweep.cells):.2f} s; degrade "
            f"{sum(cell.degrade_s or 0.0 for cell in proved):.2f} s"
        )
    return "\n".join(lines)
