"""Sweep benchmark harness: points/sec on a paper-scale grid (``repro bench --sweep``).

Where :mod:`repro.sim.bench` times a single engine run, this module
times the *executor*: a full (algorithm x load) grid on a 16x16 mesh,
executed three ways in the same process so the comparison is honest:

* **serial** — every point resolved from scratch in-process, no warm
  state, no pool: the pre-optimization in-process behavior.
* **cold_spawn** — one *fresh spawned worker process per point*
  (``maxtasksperchild=1``), so every point cold-starts its worker:
  boots an interpreter, re-imports the package, re-parses the
  topology, and rebuilds the routing structures.  This is the
  per-point process model — "run each point in its own process" —
  that the warm pool replaces.
* **warm_pool** — :class:`~repro.analysis.executor.SweepExecutor`
  with its persistent warm worker pool, shared route tables, and
  key-batched scheduling, at the executor's own default worker count.

Every mode must produce bit-identical results: the harness digests each
point's :class:`~repro.sim.stats.SimulationResult` and raises if the
combined digest differs between modes, so a speedup that costs
correctness fails the bench outright.  The headline ``points_per_sec``
is the warm mode's; ``speedup_warm_vs_cold`` is the number the ISSUE's
acceptance gate tracks (warm must stay >= 2x cold).

Scenario definitions are frozen, exactly like the engine bench:
changing one invalidates every recorded ``BENCH_sweep.json`` baseline,
so add scenarios instead of editing them.  Run from the CLI::

    repro bench --sweep                # writes BENCH_sweep.json
    repro bench --sweep --quick        # CI-sized grid
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    SweepExecutor,
    _run_point_job,
)
from repro.sim.digest import result_digest

__all__ = [
    "SweepBenchScenario",
    "SWEEP_BENCH_SCENARIOS",
    "run_sweep_bench",
    "render_sweep_report",
    "main",
]

#: Packet sizes for every sweep-bench scenario (mean 14 flits, bimodal
#: like the paper's workload but sized for benchmark turnaround).
_BENCH_SIZES: Tuple[Tuple[int, float], ...] = ((4, 0.5), (24, 0.5))


@dataclass(frozen=True)
class SweepBenchScenario:
    """One frozen sweep-benchmark grid.

    Attributes:
        name: stable identifier (keys ``BENCH_sweep.json``).
        description: one-line summary for the report.
        topology: topology spec string.
        algorithms: routing registry names, one sweep series each.
        pattern: traffic pattern registry name.
        loads: offered loads per algorithm in full mode.
        quick_loads: the reduced grid ``--quick`` runs.
        seed: workload RNG seed shared by every point.
    """

    name: str
    description: str
    topology: str
    algorithms: Tuple[str, ...]
    pattern: str
    loads: Tuple[float, ...]
    quick_loads: Tuple[float, ...]
    seed: int = 1


SWEEP_BENCH_SCENARIOS: Dict[str, SweepBenchScenario] = {
    scenario.name: scenario
    for scenario in (
        SweepBenchScenario(
            "mesh16-grid",
            "16x16 mesh, six turn-model algorithms, uniform, "
            "loads 0.05-0.40",
            topology="mesh:16x16",
            algorithms=("xy", "yx", "west-first", "north-last",
                        "negative-first", "abopl"),
            pattern="uniform",
            loads=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
            quick_loads=(0.05, 0.30),
            seed=7,
        ),
    )
}


def _sweep_config() -> ConfigSpec:
    """The per-point simulation config every sweep-bench point uses.

    Deliberately short: this bench measures the *executor* — scheduling,
    worker cold-start amortization, shared-state reuse — so per-point
    simulation time is kept small enough that those overheads dominate,
    exactly the regime the warm pool exists for.  Engine speed has its
    own bench (:mod:`repro.sim.bench`).  Quick mode shrinks the load
    ladder instead, keeping every point's digest mode-independent.
    """
    return ConfigSpec(warmup_cycles=50, measure_cycles=150, drain_cycles=50)


def _scenario_points(
    scenario: SweepBenchScenario, quick: bool
) -> List[PointSpec]:
    """The grid as executor points, series-per-algorithm in grid order."""
    config = _sweep_config()
    loads = scenario.quick_loads if quick else scenario.loads
    points: List[PointSpec] = []
    for algorithm in scenario.algorithms:
        for index, load in enumerate(loads):
            spec = ExperimentSpec(
                topology=scenario.topology,
                routing=algorithm,
                pattern=scenario.pattern,
                load=load,
                sizes=_BENCH_SIZES,
                config=config,
                seed=scenario.seed,
            )
            points.append(PointSpec(spec=spec, series=algorithm, index=index))
    return points


def _combined_digest(digests: Iterable[str]) -> str:
    """One digest over the grid's per-point digests, in grid order."""
    import hashlib

    joined = "\n".join(digests).encode("ascii")
    return hashlib.sha256(joined).hexdigest()


def _cold_point_digest(spec: ExperimentSpec) -> str:
    """Spawn-pool worker: run one point fully cold, return its digest.

    Module-level so it pickles under the spawn start method; only the
    digest crosses back, keeping IPC out of the measurement as much as
    possible.
    """
    return result_digest(_run_point_job(spec).result)


def _mode_record(wall: float, count: int) -> dict:
    return {
        "wall_seconds": wall,
        "points_per_sec": count / wall if wall > 0 else float("inf"),
    }


def _run_serial(specs: List[ExperimentSpec]) -> Tuple[List[str], float]:
    started = time.perf_counter()
    digests = [_cold_point_digest(spec) for spec in specs]
    return digests, time.perf_counter() - started


def _run_cold_spawn(specs: List[ExperimentSpec]) -> Tuple[List[str], float]:
    """Per-point cold-start workers: one fresh spawn process per point.

    ``processes=1`` keeps the chain strictly sequential — the next
    point's interpreter boot cannot hide behind the previous point's
    simulation — which is exactly the "cold-start every worker" cost
    the warm pool amortizes away.
    """
    context = multiprocessing.get_context("spawn")
    started = time.perf_counter()
    with context.Pool(processes=1, maxtasksperchild=1) as pool:
        # chunksize=1: Pool.map otherwise groups several points into one
        # "task", letting a single worker outlive maxtasksperchild's
        # intent and skip most of the cold starts being measured.
        digests = pool.map(_cold_point_digest, specs, chunksize=1)
    return list(digests), time.perf_counter() - started


def _run_warm_pool(
    points: List[PointSpec], jobs: Optional[int]
) -> Tuple[List[str], float, dict]:
    started = time.perf_counter()
    with SweepExecutor(jobs=jobs, warm=True) as executor:
        outcomes = executor.run_points(points)
        wall = time.perf_counter() - started
        metrics = executor.last_metrics
        resolved_jobs = executor.jobs
    digests = [result_digest(outcome.result) for outcome in outcomes]
    executor_stats = {
        "jobs": resolved_jobs,
        "warm_points": metrics.warm_points if metrics else 0,
        "batches": metrics.batches if metrics else 0,
    }
    return digests, wall, executor_stats


def _run_one(
    scenario: SweepBenchScenario, quick: bool, jobs: Optional[int]
) -> dict:
    points = _scenario_points(scenario, quick)
    specs = [point.spec for point in points]
    loads = scenario.quick_loads if quick else scenario.loads

    serial_digests, serial_wall = _run_serial(specs)
    cold_digests, cold_wall = _run_cold_spawn(specs)
    warm_digests, warm_wall, executor_stats = _run_warm_pool(points, jobs)

    combined = {
        "serial": _combined_digest(serial_digests),
        "cold_spawn": _combined_digest(cold_digests),
        "warm_pool": _combined_digest(warm_digests),
    }
    if len(set(combined.values())) != 1:
        raise RuntimeError(
            f"sweep bench {scenario.name!r}: execution modes disagree on "
            f"results — digests {combined!r}"
        )

    count = len(points)
    warm = _mode_record(warm_wall, count)
    warm["executor"] = executor_stats
    modes = {
        "serial": _mode_record(serial_wall, count),
        "cold_spawn": _mode_record(cold_wall, count),
        "warm_pool": warm,
    }
    cold_pps = modes["cold_spawn"]["points_per_sec"]
    serial_pps = modes["serial"]["points_per_sec"]
    warm_pps = warm["points_per_sec"]
    return {
        "description": scenario.description,
        "topology": scenario.topology,
        "algorithms": list(scenario.algorithms),
        "pattern": scenario.pattern,
        "loads": list(loads),
        "points_total": count,
        "modes": modes,
        # Headline numbers track the optimized (warm) path; the digest
        # is shared by construction (the mismatch check above).
        "wall_seconds": warm["wall_seconds"],
        "points_per_sec": warm_pps,
        "result_digest": combined["warm_pool"],
        "speedup_warm_vs_cold": warm_pps / cold_pps if cold_pps else 0.0,
        "speedup_warm_vs_serial": warm_pps / serial_pps if serial_pps else 0.0,
    }


def run_sweep_bench(
    names: Optional[Iterable[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the named sweep scenarios (default: all); returns the payload.

    The payload maps scenario names to measurements plus a ``meta``
    block; it serializes directly to ``BENCH_sweep.json``.  ``jobs``
    is the warm executor's worker count; ``None`` uses the executor's
    own default (one per CPU), so the bench measures the product
    configuration.

    Raises:
        RuntimeError: if any scenario's serial, cold-spawn, and
            warm-pool digests disagree.
    """
    selected: List[SweepBenchScenario] = []
    for name in (names or SWEEP_BENCH_SCENARIOS):
        try:
            selected.append(SWEEP_BENCH_SCENARIOS[name])
        except KeyError:
            known = ", ".join(sorted(SWEEP_BENCH_SCENARIOS))
            raise KeyError(
                f"unknown sweep bench scenario {name!r}; known: {known}"
            )
    effective_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    config = _sweep_config()
    payload: dict = {
        "meta": {
            "mode": "quick" if quick else "full",
            "total_cycles": config.total_cycles,
            "jobs": effective_jobs,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "scenarios": {},
    }
    for scenario in selected:
        if progress is not None:
            progress(
                f"sweep bench {scenario.name} ({scenario.description}) ..."
            )
        payload["scenarios"][scenario.name] = _run_one(scenario, quick, jobs)
    return payload


def apply_baseline(payload: dict, baseline: dict) -> None:
    """Annotate each scenario with its speedup over a recorded baseline."""
    base_scenarios = baseline.get("scenarios", baseline)
    for name, record in payload["scenarios"].items():
        base = base_scenarios.get(name)
        if not base or not base.get("points_per_sec"):
            continue
        record["baseline_points_per_sec"] = base["points_per_sec"]
        record["speedup_vs_baseline"] = (
            record["points_per_sec"] / base["points_per_sec"]
        )


def render_sweep_report(payload: dict) -> str:
    """Human-readable table of one sweep-bench payload."""
    meta = payload["meta"]
    lines = [
        f"sweep bench ({meta['mode']}, {meta['total_cycles']} cycles/point, "
        f"{meta['jobs']} jobs, python {meta['python']})",
        f"{'scenario':14s} {'points':>6s} {'serial p/s':>10s} "
        f"{'cold p/s':>10s} {'warm p/s':>10s} {'warm/cold':>9s}",
    ]
    for name, r in payload["scenarios"].items():
        modes = r["modes"]
        line = (
            f"{name:14s} {r['points_total']:6d} "
            f"{modes['serial']['points_per_sec']:10.2f} "
            f"{modes['cold_spawn']['points_per_sec']:10.2f} "
            f"{modes['warm_pool']['points_per_sec']:10.2f} "
            f"{r['speedup_warm_vs_cold']:8.2f}x"
        )
        if "speedup_vs_baseline" in r:
            line += f"   x{r['speedup_vs_baseline']:.2f} vs baseline"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python benchmarks/bench_sweep.py``)."""
    import argparse

    parser = argparse.ArgumentParser(description="sweep executor benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grid (reduced load ladder)")
    parser.add_argument("--scenario", nargs="+", default=None,
                        choices=sorted(SWEEP_BENCH_SCENARIOS),
                        help="subset of scenarios to run")
    parser.add_argument("--jobs", type=int, default=None,
                        help="warm-pool worker processes "
                             "(default: one per CPU)")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_sweep.json to compute speedups")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="output path ('-' to skip writing)")
    args = parser.parse_args(argv)

    payload = run_sweep_bench(
        args.scenario, quick=args.quick, jobs=args.jobs,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    if args.baseline:
        with open(args.baseline) as fh:
            apply_baseline(payload, json.load(fh))
    print(render_sweep_report(payload))
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
