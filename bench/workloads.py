"""The five benchmark workloads: inputs, the timed call, the output check.

Each workload is built from ``--seed`` (it becomes every spec's ``seed``
and the ``fault_seed``); the program only ever sees the generated specs.
The timed region of a pass is exactly the call a user makes —
``SweepExecutor.run_points``, ``repro.api.run``, ``fault_sweep``,
``verify_all`` + ``run_synthesis`` — and nothing else; digests are taken
afterwards, outside it.  The definitions (topologies, algorithms, loads,
cycle windows) are frozen: change ``--passes``, never these.

``reduced=True`` shrinks every workload to a few small points.  Only
``bench/selftest.py`` uses it, to exercise the harness in seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import (
    ConfigSpec,
    ExecutorHooks,
    ExperimentSpec,
    ObsSpec,
    PointSpec,
    ResilienceSpec,
    SimulationConfig,
    SweepExecutor,
    SynthSpec,
    fault_sweep,
    run,
    run_synthesis,
)
from repro.verify import default_targets, verify_all

from layers import point_id, resolve
from spans import Tracer

#: Worker count of the one parallel pass.  Fixed (never the CPU count) so
#: numbers compare across hosts with at least two cores.
JOBS = 2

GRID_ALGORITHMS = ("xy", "yx", "west-first", "north-last", "negative-first", "abopl")
GRID_SIZES = ((4, 0.5), (24, 0.5))
SHORT_WINDOWS = ConfigSpec(warmup_cycles=50, measure_cycles=150, drain_cycles=50)


def _cycles(config: ConfigSpec) -> int:
    return config.warmup_cycles + config.measure_cycles + config.drain_cycles


class Context:
    """What a pass needs besides its inputs: scratch space and the tracer."""

    def __init__(self, work: Path, tracer: Optional[Tracer]) -> None:
        self.work = work
        self.tracer = tracer

    def span(self, name: str, point: Optional[str] = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, point)

    def hooks(self) -> Optional[ExecutorHooks]:
        """Per-point child spans for a traced pass; none otherwise."""
        return SpanHooks(self.tracer) if self.tracer is not None else None


class SpanHooks(ExecutorHooks):
    """Turns the executor's public progress callbacks into point spans.

    A point that never got ``on_point_start`` (a cache hit) starts where
    the previous point ended.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._parent: Optional[int] = None
        self._starts: Dict[str, float] = {}
        self._last = 0.0

    def on_run_start(self, total_points: int) -> None:
        self._parent = self.tracer.current
        self._last = time.perf_counter()

    def on_point_start(self, point: PointSpec) -> None:
        self._starts[point_id(point.spec)] = time.perf_counter()

    def on_point_done(self, outcome) -> None:
        now = time.perf_counter()
        pid = point_id(outcome.point.spec)
        start = self._starts.pop(pid, self._last)
        name = "point.cached" if outcome.cached else "point"
        self.tracer.add(name, start, now, self._parent, pid)
        self._last = now


class ExecutorTally:
    """Sums the public ``ExecutorMetrics`` over a pass's ``run_points`` calls."""

    FIELDS = ("points_total", "cache_hits", "simulated", "cycles_simulated",
              "warm_points", "batches", "prewarmed_keys")

    def __init__(self) -> None:
        self.totals = {name: 0 for name in self.FIELDS}
        self.totals["run_points_wall_s"] = 0.0
        self.totals["point_wall_sum_s"] = 0.0

    def add(self, executor: SweepExecutor, outcomes) -> None:
        metrics = executor.last_metrics
        for name in self.FIELDS:
            self.totals[name] += getattr(metrics, name, 0)
        self.totals["run_points_wall_s"] += metrics.wall_time_s
        self.totals["point_wall_sum_s"] += sum(o.wall_time_s for o in outcomes)


def _digest(result) -> str:
    return resolve("result_digest")(result)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_results(record: dict, results, prefix: str = "") -> None:
    """Digest every ``(spec, result)``; a deadlocked point is a failed one."""
    for spec, result in results:
        pid = prefix + point_id(spec)
        record["digests"][pid] = _digest(result)
        if result.deadlocked:
            record["problems"].append(f"{pid}: unexpected deadlock")


def _of_outcomes(outcomes):
    return ((outcome.point.spec, outcome.result) for outcome in outcomes)


def _new_record(timed_s: float, ops: int, op_walls_ms: List[float]) -> dict:
    return {
        "timed_s": timed_s,
        "ops": ops,
        "op_walls_ms": op_walls_ms,
        "segments": {},
        "executor": ExecutorTally().totals,
        "simulated_kcycles": 0.0,
        "digests": {},
        "problems": [],
    }


def _grid_points(seed: int, topology: str, algorithms, loads,
                 obs: Optional[ObsSpec] = None) -> List[PointSpec]:
    return [
        PointSpec(
            spec=ExperimentSpec(
                topology=topology, routing=algorithm, pattern="uniform",
                load=load, sizes=GRID_SIZES, config=SHORT_WINDOWS, seed=seed,
                obs=obs,
            ),
            series=algorithm,
            index=index,
        )
        for algorithm in algorithms
        for index, load in enumerate(loads)
    ]


class Workload:
    """One workload: ``run`` is the timed pass, ``check`` digests its output."""

    name = ""

    def run(self, variant: str, ctx: Context) -> Tuple[dict, object]:
        raise NotImplementedError

    def check(self, record: dict, kept: object, reference: bool) -> None:
        raise NotImplementedError

    def replay_inputs(self) -> dict:
        """What the layer replay works on (see ``layers.Replay``)."""
        return {}


class GridShort(Workload):
    """ROADMAP item 2's grid: 6 algorithms x 8 loads of short points on
    mesh 16x16, where per-point fixed cost is a real share of the wall."""

    name = "grid_short"

    def __init__(self, seed: int, reduced: bool) -> None:
        if reduced:
            self.points = _grid_points(seed, "mesh:8x8", GRID_ALGORITHMS[:2], (0.05, 0.25))
        else:
            loads = [round(0.05 * step, 2) for step in range(1, 9)]
            self.points = _grid_points(seed, "mesh:16x16", GRID_ALGORITHMS, loads)

    def run(self, variant, ctx):
        jobs = JOBS if variant == "jobs2" else 1
        tally = ExecutorTally()
        # The pool starts lazily inside run_points, so for jobs=2 its
        # start-up is inside the timed region, as it is for a CLI user.
        executor = SweepExecutor(jobs=jobs, hooks=ctx.hooks())
        try:
            with ctx.span(f"run_points.{variant}"):
                started = time.perf_counter()
                outcomes = executor.run_points(self.points)
                timed = time.perf_counter() - started
            tally.add(executor, outcomes)
        finally:
            executor.close()
        record = _new_record(timed, len(outcomes),
                             [o.wall_time_s * 1e3 for o in outcomes])
        record["executor"] = tally.totals
        record["simulated_kcycles"] = tally.totals["cycles_simulated"] / 1e3
        return record, outcomes

    def check(self, record, kept, reference):
        _check_results(record, _of_outcomes(kept))

    def replay_inputs(self):
        return {"specs": [p.spec for p in self.points], "stride": 4}


class LongPoints(Workload):
    """Six paper-scale points through ``repro.api.run``: engine-dominated,
    low and saturated loads, mesh and hypercube."""

    name = "long_points"
    POINTS = (
        ("mesh:16x16", "west-first", "uniform", 0.10),
        ("mesh:16x16", "negative-first", "transpose", 0.35),
        ("mesh:16x16", "xy", "uniform", 0.30),
        ("cube:8", "p-cube", "uniform", 0.45),
        ("cube:8", "e-cube", "reverse-flip", 0.10),
        ("cube:8", "p-cube", "reverse-flip", 0.30),
    )

    def __init__(self, seed: int, reduced: bool) -> None:
        if reduced:
            config = ConfigSpec(warmup_cycles=100, measure_cycles=300, drain_cycles=100)
            chosen = (("mesh:8x8", "west-first", "uniform", 0.10),
                      ("cube:5", "p-cube", "uniform", 0.30))
        else:
            config = ConfigSpec(warmup_cycles=2_000, measure_cycles=8_000, drain_cycles=2_000)
            chosen = self.POINTS
        # ``sizes`` defaults to the paper's 10/200-flit mix.
        self.specs = [
            ExperimentSpec(topology=t, routing=r, pattern=p, load=load,
                           config=config, seed=seed)
            for t, r, p, load in chosen
        ]

    def run(self, variant, ctx):
        results, walls = [], []
        with ctx.span("api.run.all"):
            started = time.perf_counter()
            for spec in self.specs:
                with ctx.span("point", point_id(spec)):
                    began = time.perf_counter()
                    results.append(run(spec))
                    walls.append((time.perf_counter() - began) * 1e3)
            timed = time.perf_counter() - started
        record = _new_record(timed, len(results), walls)
        record["simulated_kcycles"] = sum(_cycles(s.config) for s in self.specs) / 1e3
        return record, results

    def check(self, record, kept, reference):
        _check_results(record, ((out.spec, out.result) for out in kept))

    def replay_inputs(self):
        return {"specs": list(self.specs), "stride": 3}


class ObsCached(Workload):
    """The executor writing beside reading: a fresh grid with obs hooks,
    cache stores and manifest writes, then three fully cached reruns."""

    name = "obs_cached"
    RERUNS = 3

    def __init__(self, seed: int, reduced: bool) -> None:
        if reduced:
            self.points = _grid_points(seed, "mesh:8x8", GRID_ALGORITHMS[:2],
                                       (0.05, 0.25), obs=ObsSpec())
        else:
            self.points = _grid_points(seed, "mesh:16x16", GRID_ALGORITHMS,
                                       (0.05, 0.15, 0.25, 0.35), obs=ObsSpec())

    def _call(self, ctx, tally, label):
        """One ``repro sweep`` invocation on the shared dirs: its own executor."""
        with SweepExecutor(jobs=1, cache_dir=ctx.work / "cache",
                           manifest_dir=ctx.work / "manifests",
                           hooks=ctx.hooks()) as executor:
            with ctx.span(f"run_points.{label}"):
                started = time.perf_counter()
                outcomes = executor.run_points(self.points)
                wall = time.perf_counter() - started
            tally.add(executor, outcomes)
        return outcomes, wall

    def run(self, variant, ctx):
        tally = ExecutorTally()
        fresh, fresh_s = self._call(ctx, tally, "fresh")
        reruns, rerun_s = [], 0.0
        for index in range(self.RERUNS):
            outcomes, wall = self._call(ctx, tally, f"rerun{index + 1}")
            reruns.append(outcomes)
            rerun_s += wall
        record = _new_record(fresh_s + rerun_s, len(fresh),
                             [o.wall_time_s * 1e3 for o in fresh])
        record["segments"] = {
            "fresh_s": fresh_s,
            "rerun_s": rerun_s,
            "rerun_ops": sum(len(outcomes) for outcomes in reruns),
        }
        record["executor"] = tally.totals
        record["simulated_kcycles"] = tally.totals["cycles_simulated"] / 1e3
        return record, (fresh, reruns)

    def check(self, record, kept, reference):
        fresh, reruns = kept
        _check_results(record, _of_outcomes(fresh))
        for index, outcomes in enumerate(reruns):
            _check_results(record, _of_outcomes(outcomes), prefix=f"rerun{index + 1}:")
            simulated = [point_id(o.point.spec) for o in outcomes if not o.cached]
            for pid in simulated:
                record["problems"].append(f"rerun{index + 1}:{pid}: simulated, not cached")
        if reference:
            # The same points with collection off: obs must be invisible
            # to results.  Only the discarded warm-up pass pays for this.
            for point in self.points:
                plain = dataclasses.replace(point.spec, obs=None)
                record["digests"]["noobs:" + point_id(plain)] = _digest(run(plain).result)

    def replay_inputs(self):
        return {"specs": [p.spec for p in self.points], "stride": 6}


class FaultSweep(Workload):
    """``repro resilience`` at the ``quick`` preset's scale: the cold
    non-warm path, controller hooks, and recertification per degraded
    topology.  The preset's values are copied here so they stay frozen."""

    name = "fault_sweep"
    ALGORITHMS = ("xy", "west-first", "negative-first", "west-first-nonminimal")

    def __init__(self, seed: int, reduced: bool) -> None:
        self.seed = seed
        if reduced:
            self.topology, self.algorithms, self.counts = "mesh:4x4", self.ALGORITHMS[::3], (0, 2)
            self.windows = dict(warmup_cycles=100, measure_cycles=400, drain_cycles=200)
        else:
            self.topology, self.algorithms, self.counts = "mesh:8x8", self.ALGORITHMS, (0, 2, 4, 8)
            self.windows = dict(warmup_cycles=400, measure_cycles=2_000, drain_cycles=1_000)
        self.load = 0.06

    def run(self, variant, ctx):
        tally = ExecutorTally()
        with SweepExecutor(hooks=ctx.hooks()) as executor:
            with ctx.span("fault_sweep"):
                started = time.perf_counter()
                sweep = fault_sweep(
                    self.topology, self.algorithms, "uniform", self.load,
                    self.counts, config=SimulationConfig(**self.windows),
                    seed=self.seed, fault_seed=self.seed, policy="drop",
                    recertify=True, executor=executor,
                )
                timed = time.perf_counter() - started
            tally.add(executor, ())
        record = _new_record(timed, len(sweep.cells), [])
        record["executor"] = tally.totals
        record["simulated_kcycles"] = len(sweep.cells) * sum(self.windows.values()) / 1e3
        return record, sweep

    def check(self, record, kept, reference):
        for cell in kept.cells:
            pid = f"{kept.topology}/{cell.algorithm}/f{cell.fault_count}"
            # The resilience ledger is part of the output, so it is pinned too.
            record["digests"][pid] = _sha([_digest(cell.result), cell.resilience])
            if cell.result.deadlocked:
                record["problems"].append(f"{pid}: unexpected deadlock")

    def replay_inputs(self):
        # Every cell's fault-free twin stands for it in the engine
        # sections; the first and last algorithm's worst cell (one that
        # degrades by filtering, one that rebuilds its tables) go through
        # the resilience section.
        config = ConfigSpec(**self.windows)
        plain = [
            ExperimentSpec(topology=self.topology, routing=algorithm,
                           pattern="uniform", load=self.load,
                           config=config, seed=self.seed)
            for algorithm in self.algorithms
        ]
        worst = max(self.counts)
        faulted = [
            dataclasses.replace(spec, resilience=ResilienceSpec(
                fault_count=worst, fault_seed=self.seed + worst))
            for spec in (plain[0], plain[-1])
        ]
        specs = [spec for spec in plain for _ in self.counts]
        return {"specs": specs, "stride": len(self.counts), "faulted": faulted}


class CertifySynth(Workload):
    """No simulation at all: the 42-target certification sweep plus the 2D
    census and a 32-candidate slice of the 3D one.  The bypass workload
    for every engine and executor optimisation."""

    name = "certify_synth"

    def __init__(self, seed: int, reduced: bool) -> None:
        self.reduced = reduced
        if reduced:
            self.synth = [SynthSpec("mesh:3x3", seed=seed)]
        else:
            self.synth = [SynthSpec("mesh:4x4", seed=seed),
                          SynthSpec("mesh:3x3x3", max_candidates=32, seed=seed)]

    def _targets(self):
        return default_targets(topologies=["mesh:5x4"]) if self.reduced else None

    def run(self, variant, ctx):
        targets = self._targets()
        started = time.perf_counter()
        with ctx.span("verify_all"):
            report = verify_all(targets)
        syntheses = []
        for spec in self.synth:
            with ctx.span("run_synthesis", spec.topology):
                syntheses.append(run_synthesis(spec))
        timed = time.perf_counter() - started
        ops = len(report.targets) + sum(len(s.outcomes) for s in syntheses)
        return _new_record(timed, ops, []), (report, syntheses)

    def check(self, record, kept, reference):
        report, syntheses = kept
        for target in report.targets:
            record["digests"][target.target] = target.verdict
            if not target.as_expected:
                record["problems"].append(
                    f"{target.target}: verdict {target.verdict}, expected {target.expect}")
        for synthesis in syntheses:
            label = synthesis.spec.topology
            record["digests"][f"{label}/census"] = _sha([
                synthesis.enumerated, synthesis.deadlock_free, synthesis.deadlocked,
                [[o.name, o.certified, o.rediscovers] for o in synthesis.outcomes],
            ])
            # A truncated enumeration may stop short of a named algorithm.
            if synthesis.missing_rediscovery is not None and not synthesis.truncated:
                record["problems"].append(
                    f"{label}: {synthesis.missing_rediscovery} not rediscovered")
        census = syntheses[0]
        if not self.reduced:
            counts = (census.enumerated, census.deadlock_free, census.deadlocked)
            found = {o.rediscovers for o in census.outcomes if o.rediscovers}
            if len(report.targets) != 42:
                record["problems"].append(f"verify_all: {len(report.targets)} targets, expected 42")
            if counts != (16, 12, 4):
                record["problems"].append(f"mesh:4x4 census {counts}, expected (16, 12, 4)")
            if found != {"west-first", "north-last", "negative-first"}:
                record["problems"].append(f"mesh:4x4 rediscovered {sorted(found)}")

    def replay_inputs(self):
        return {"targets": self._targets() or default_targets(),
                "synth": list(self.synth)}


WORKLOADS = {cls.name: cls for cls in
             (GridShort, LongPoints, ObsCached, FaultSweep, CertifySynth)}
