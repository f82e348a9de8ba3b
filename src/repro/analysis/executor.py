"""Parallel sweep execution with on-disk result caching.

Every paper figure is a grid of independent ``(routing, pattern, load)``
simulation points — an embarrassingly parallel workload.  This module
supplies the execution engine every sweep in the harness routes through:

* :class:`ExperimentSpec` — a frozen, picklable, content-hashable
  description of one simulation point (topology spec string, routing
  name, pattern name, load, packet sizes, config, seed).  Because it is
  all primitives, it crosses process boundaries and hashes stably.
* :class:`PointSpec` — one executor job: a spec plus the series label
  and index that route its result back into a sweep.
* :class:`RunResult` — the one per-point record: what
  :meth:`ExperimentSpec.run_full`, a cache hit and every executor path
  return, and what the cache and manifest writers take.
* :class:`ResultCache` — an on-disk store keyed by the spec's content
  hash, so re-running a figure only simulates the missing points.
* :class:`SweepExecutor` — fans points out over a *persistent*
  :mod:`concurrent.futures` process pool (``jobs > 1``, kept alive
  across ``run_points`` calls) or runs them in-process (``jobs == 1``,
  the deterministic default for tests), with progress/metrics surfaced
  through :class:`ExecutorHooks`.

Sweep grids repeat the same few ``(topology, algorithm)`` pairs across
many loads, so the executor amortizes construction through
:mod:`repro.analysis.prewarm`: points are batched by pair and each
batch reuses one warm context per process (shared topology/routing
objects plus the pair's compiled route table, filled lazily by the
points that run on it — in the workers, in parallel, exactly as the
serial path fills it).

Per-point results are bit-identical between the serial, parallel, and
warmed paths because each point is simulated from its spec alone: same
seeds, same config, and the only shared state is immutable objects and
memoized pure routing decisions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Generator,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.analysis.prewarm import WarmContext, get_warm_context
from repro.obs.envelope import replace_file
from repro.obs.spec import ObsSpec
from repro.routing.registry import canonical_name, make_routing
from repro.routing.selection import (
    is_registered_policy,
    make_input_policy,
    make_output_policy,
)
from repro.sim.config import FLITS_PER_USEC, SimulationConfig
from repro.sim.engine import make_simulator
from repro.sim.stats import SimulationResult
from repro.topology.base import Topology
from repro.topology.spec import parse_topology, topology_spec
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution, Workload

__all__ = [
    "SPEC_VERSION",
    "ConfigSpec",
    "ResilienceSpec",
    "ExperimentSpec",
    "PointSpec",
    "RunResult",
    "ExecutorHooks",
    "ExecutorMetrics",
    "ProgressPrinter",
    "ResultCache",
    "SweepExecutor",
    "encode_point_record",
]

#: Version tag mixed into every content hash.  Bump it when simulator
#: semantics change in a way that invalidates archived results.
SPEC_VERSION = 1


@dataclass(frozen=True)
class ConfigSpec:
    """A :class:`SimulationConfig` flattened to hashable primitives.

    Selection policies are carried by registry name rather than by
    instance so the spec can be pickled to workers and content-hashed.
    Field defaults mirror :class:`SimulationConfig`'s, and so do the
    checks: a spec that could not build its config is refused here, in
    the process that wrote it, not inside a worker's run.
    """

    buffer_depth: int = 1
    warmup_cycles: int = 2_000
    measure_cycles: int = 10_000
    drain_cycles: int = 4_000
    output_policy: str = "xy"
    input_policy: str = "fcfs"
    routing_delay_cycles: int = 1
    deadlock_threshold: int = 2_000
    flits_per_usec: float = FLITS_PER_USEC
    seed: int = 1
    max_packets: Optional[int] = None

    def __post_init__(self) -> None:
        # Raises ValueError for an out-of-range knob or an unregistered
        # policy name.
        self.to_config()

    @classmethod
    def from_config(cls, config: Optional[SimulationConfig]) -> "ConfigSpec":
        """Flatten a config; ``None`` yields the defaults.

        Raises:
            ValueError: if a selection policy is not a registered one
                (custom policy instances cannot be carried by name).
        """
        if config is None:
            return cls()
        # A custom instance that borrowed a stock name must not be
        # silently swapped for the stock behavior in a worker process.
        for kind, policy in (
            ("output", config.output_policy), ("input", config.input_policy)
        ):
            if not is_registered_policy(policy):
                raise ValueError(
                    f"{kind} policy {policy.name!r} is not the registered one"
                )
        return cls(
            buffer_depth=config.buffer_depth,
            warmup_cycles=config.warmup_cycles,
            measure_cycles=config.measure_cycles,
            drain_cycles=config.drain_cycles,
            output_policy=config.output_policy.name,
            input_policy=config.input_policy.name,
            routing_delay_cycles=config.routing_delay_cycles,
            deadlock_threshold=config.deadlock_threshold,
            flits_per_usec=config.flits_per_usec,
            seed=config.seed,
            max_packets=config.max_packets,
        )

    def to_config(self) -> SimulationConfig:
        """Rebuild the equivalent :class:`SimulationConfig`."""
        return SimulationConfig(
            buffer_depth=self.buffer_depth,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain_cycles=self.drain_cycles,
            output_policy=make_output_policy(self.output_policy),
            input_policy=make_input_policy(self.input_policy),
            routing_delay_cycles=self.routing_delay_cycles,
            deadlock_threshold=self.deadlock_threshold,
            flits_per_usec=self.flits_per_usec,
            seed=self.seed,
            max_packets=self.max_packets,
        )

    @property
    def total_cycles(self) -> int:
        """Cycles one simulation of this config runs."""
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles


@dataclass(frozen=True)
class ResilienceSpec:
    """Runtime fault injection for one point, as pure data.

    Describes the :class:`~repro.resilience.FaultController` a run
    builds: how many links fail (seed-derived, inside ``window``), the
    recovery policy for casualties, and whether degraded configurations
    are re-certified deadlock-free.  Lives here — not in
    :mod:`repro.resilience` — because it is part of the executor's
    picklable, content-hashable spec vocabulary; the live controller is
    built lazily at run time.

    Attributes:
        fault_count: distinct channels to fail.
        fault_seed: RNG seed the fault schedule derives from.
        policy: recovery policy name (``drop``, ``retransmit``,
            ``abort``).
        heal_after: cycles until each fault heals (``None`` = permanent).
        recertify: certify each degraded configuration deadlock-free
            (the CLI's ``--no-recertify`` clears this).
        require_connected: resample the fault set (bounded) so the fully
            degraded topology stays strongly connected.
        window: half-open cycle range faults strike in; ``None`` uses
            the run's measurement window.
        retransmit_base_delay, retransmit_delay_cap,
        retransmit_max_attempts: backoff shape for the ``retransmit``
            policy (ignored by the others).
    """

    fault_count: int = 0
    fault_seed: int = 1
    policy: str = "drop"
    heal_after: Optional[int] = None
    recertify: bool = True
    require_connected: bool = True
    window: Optional[Tuple[int, int]] = None
    retransmit_base_delay: int = 8
    retransmit_delay_cap: int = 512
    retransmit_max_attempts: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", self.policy.strip().lower())
        if self.window is not None:
            object.__setattr__(
                self, "window", tuple(int(edge) for edge in self.window)
            )
        if self.fault_count < 0:
            raise ValueError(f"fault_count must be >= 0: {self.fault_count}")


def _fields_of(spec: object, names: Tuple[str, ...]) -> dict:
    return {name: getattr(spec, name) for name in names}


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ConfigSpec))
_RESILIENCE_FIELDS = tuple(f.name for f in dataclasses.fields(ResilienceSpec))
_OBS_FIELDS = tuple(f.name for f in dataclasses.fields(ObsSpec))


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation point as pure data.

    Attributes:
        topology: topology spec string (``"mesh:16x16"``, ``"cube:8"``).
        routing: routing algorithm registry name.
        pattern: traffic pattern registry name.
        load: offered load in flits per node per cycle.
        sizes: packet-size distribution as ``(size, probability)`` pairs.
        config: simulator configuration as primitives.
        seed: workload RNG seed.
        resilience: optional runtime fault injection.  ``None`` (the
            default) is omitted from the serialized form entirely, so
            every pre-existing spec hash — and every archived cache
            entry — is unchanged by the field's existence.
        obs: optional observability collection
            (:class:`~repro.obs.spec.ObsSpec`).  Omitted from the
            serialized form when ``None``, exactly like ``resilience``,
            so enabling metrics never perturbs existing hashes — and
            because collection is bit-invisible, an obs-enabled run's
            *result* is identical to the plain run's.

    Names are canonicalized on construction, so specs built from alias
    spellings (``"negative_first"``) hash identically to the canonical
    form.
    """

    topology: str
    routing: str
    pattern: str
    load: float
    sizes: Tuple[Tuple[int, float], ...] = PAPER_SIZES.choices
    config: ConfigSpec = field(default_factory=ConfigSpec)
    seed: int = 1
    resilience: Optional[ResilienceSpec] = None
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "topology", self.topology.strip().lower())
        object.__setattr__(self, "routing", canonical_name(self.routing))
        object.__setattr__(self, "pattern", canonical_name(self.pattern))
        object.__setattr__(
            self, "sizes", tuple((int(s), float(p)) for s, p in self.sizes)
        )
        object.__setattr__(self, "load", float(self.load))

    def size_distribution(self) -> SizeDistribution:
        """The :class:`SizeDistribution` these sizes describe."""
        return SizeDistribution(self.sizes)

    def to_dict(self) -> dict:
        """A JSON-ready dict; inverse of :meth:`from_dict`.

        ``None`` resilience and obs fields are dropped from the
        payload, keeping the serialization — and therefore every
        content hash and cache key minted before these fields existed —
        byte-identical for plain specs.  Built field by field, in
        declaration order (the layout ``dataclasses.asdict`` gives,
        without its recursive deep copy): every nested spec field is a
        primitive.
        """
        payload = {
            "topology": self.topology,
            "routing": self.routing,
            "pattern": self.pattern,
            "load": self.load,
            "sizes": [list(pair) for pair in self.sizes],
            "config": _fields_of(self.config, _CONFIG_FIELDS),
            "seed": self.seed,
        }
        if self.resilience is not None:
            resilience = _fields_of(self.resilience, _RESILIENCE_FIELDS)
            if self.resilience.window is not None:
                resilience["window"] = list(self.resilience.window)
            payload["resilience"] = resilience
        if self.obs is not None:
            payload["obs"] = _fields_of(self.obs, _OBS_FIELDS)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Rebuild a spec saved by :meth:`to_dict`."""
        payload = dict(data)
        payload["sizes"] = tuple(tuple(pair) for pair in payload["sizes"])
        payload["config"] = ConfigSpec(**payload["config"])
        resilience = payload.get("resilience")
        if resilience is not None:
            payload["resilience"] = ResilienceSpec(**resilience)
        obs = payload.get("obs")
        if obs is not None:
            payload["obs"] = ObsSpec(**obs)
        return cls(**payload)

    def canonical_json(self) -> str:
        """A canonical serialization: stable key order, no whitespace."""
        payload = {"version": SPEC_VERSION, "spec": self.to_dict()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 of the canonical serialization.

        Stable across processes and interpreter runs (no ``PYTHONHASHSEED``
        dependence), so it is safe as a cache key.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def run_full(self, warm: Optional[WarmContext] = None) -> "RunResult":
        """Simulate this point and return everything it produced, timed.

        Every point is built by :func:`~repro.sim.engine
        .make_simulator`.  The resilience machinery is imported — and
        the controller built — only when the spec asks for it.  Likewise
        the metrics collector exists only when ``obs`` is set, and its
        presence is bit-invisible to the result.

        Args:
            warm: optional warm context for this spec's ``(topology,
                routing)`` pair; its shared topology, routing, pattern
                and route table are reused instead of rebuilt.  They are
                immutable (and routing decisions pure), so a warm run is
                bit-identical to a cold one.  A point with a resilience
                spec shares it too: its controller derives every
                degraded table from the context's healthy table without
                writing to it, and certifies each against the healthy
                proof the first faulted point of the key kept on that
                table.

        Raises:
            ValueError: if ``warm`` belongs to a different pair.
        """
        started = time.perf_counter()
        if warm is None:
            topology = parse_topology(self.topology)
            routing = make_routing(self.routing, topology)
            pattern = make_pattern(self.pattern, topology)
        elif warm.key != (self.topology, self.routing):
            raise ValueError(
                f"warm context {warm.key!r} does not match spec "
                f"({self.topology!r}, {self.routing!r})"
            )
        else:
            topology, routing = warm.topology, warm.routing
            pattern = warm.pattern(self.pattern)
        config = self.config.to_config()
        collector = None
        if self.obs is not None:
            from repro.obs.metrics import MetricsCollector

            collector = MetricsCollector(self.obs)
        controller = None
        if self.resilience is not None:
            from repro.resilience.controller import build_controller

            controller = build_controller(topology, self.resilience, config)
        workload = Workload(
            pattern=pattern,
            sizes=self.size_distribution(),
            offered_load=self.load,
            seed=self.seed,
        )
        simulator = make_simulator(
            routing,
            workload,
            config,
            resilience=controller,
            obs=collector,
            warm=warm,
        )
        result = simulator.run()
        return RunResult(
            spec=self,
            result=result,
            resilience=(
                controller.stats.summary() if controller is not None else None
            ),
            metrics=collector.summary() if collector is not None else None,
            recertify_s=(
                controller.recertify_s if controller is not None else None
            ),
            degrade_s=controller.degrade_s if controller is not None else None,
            cruise_entries=simulator.cruise_entries,
            cruise_worm_cycles=simulator.cruise_worm_cycles,
            # Evaluated last, so the summaries above are inside the time.
            wall_time_s=time.perf_counter() - started,
        )

@dataclass(frozen=True)
class PointSpec:
    """One executor job: a spec plus routing metadata.

    Attributes:
        spec: the simulation point to run.
        series: label of the sweep series the point belongs to (usually
            the algorithm name); informational, not hashed.
        index: position within its series; informational, not hashed.
    """

    spec: ExperimentSpec
    series: str = ""
    index: int = 0


@dataclass(frozen=True)
class RunResult:
    """Everything one point produced: the one per-point record.

    What :meth:`ExperimentSpec.run_full`,
    :meth:`SweepExecutor.run_points` (fresh runs and cache hits alike)
    and the :func:`repro.api.run` facade return, and what the cache and
    manifest writers take: the headline
    :class:`~repro.sim.stats.SimulationResult` plus the optional
    sidecars — the resilience ledger for faulted runs and the obs
    metrics summary for instrumented ones — and how the point was run.

    Attributes:
        spec: the spec that was run.
        result: the simulation result.
        resilience: fault-run ledger summary; ``None`` for plain runs.
        metrics: obs metrics summary
            (:meth:`repro.obs.metrics.MetricsCollector.summary`);
            ``None`` when collection was off.
        cached: whether the result came from a result cache.
        wall_time_s: seconds the run took (0.0 for cache hits).
        recertify_s: host seconds of ``wall_time_s`` spent proving
            degraded routing tables (``None`` for plain runs and cache
            hits); like ``wall_time_s``, never hashed, cached, digested.
        degrade_s: host seconds of ``wall_time_s`` spent deriving
            degraded routing tables; carried like ``recertify_s``.
        cruise_entries, cruise_worm_cycles: what the engine's cruise
            state did (:attr:`WormholeSimulator.cruise_entries`): worms
            that streamed in aggregate, and the per-worm mover calls
            that saved.  Telemetry like the two above — ``None`` for
            cache hits, never hashed, cached or digested.
        series, index: the executor job's :class:`PointSpec` labels
            (``""`` and 0 outside a sweep); see :attr:`point`.
        cache_problem: why the point's existing cache entry was rejected
            and the point re-simulated (see
            :meth:`ResultCache.read_entry`); ``None`` normally.
    """

    spec: ExperimentSpec
    result: SimulationResult
    resilience: Optional[dict] = None
    metrics: Optional[dict] = None
    cached: bool = False
    wall_time_s: float = 0.0
    recertify_s: Optional[float] = None
    degrade_s: Optional[float] = None
    cruise_entries: Optional[int] = None
    cruise_worm_cycles: Optional[int] = None
    series: str = ""
    index: int = 0
    cache_problem: Optional[str] = None

    @property
    def point(self) -> PointSpec:
        """The executor job this record answers."""
        return PointSpec(spec=self.spec, series=self.series, index=self.index)


@dataclass
class ExecutorMetrics:
    """Counters one :meth:`SweepExecutor.run_points` call accumulates.

    ``warm_points`` counts simulations resolved through a warm context,
    ``batches`` the parallel jobs dispatched (each carries a chunk of
    same-key points), and ``cache_rejected`` the cache entries that
    existed but could not be used (unparsable, another spec's, a
    malformed result, or an obs summary in an older layout) — each
    such point was re-simulated and its entry rewritten.
    """

    points_total: int = 0
    points_completed: int = 0
    cache_hits: int = 0
    simulated: int = 0
    cycles_simulated: int = 0
    wall_time_s: float = 0.0
    warm_points: int = 0
    batches: int = 0
    cache_rejected: int = 0


class ExecutorHooks:
    """Progress callbacks; subclass and override what you need.

    The executor calls these from the coordinating process only (never
    from workers), in completion order — which under ``jobs > 1`` is not
    submission order.
    """

    def on_run_start(self, total_points: int) -> None:
        """Called once before any point runs."""

    def on_point_start(self, point: PointSpec) -> None:
        """Called when a point is dispatched (not for cache hits)."""

    def on_point_done(self, run: RunResult) -> None:
        """Called as each point completes (cache hits included)."""

    def on_run_end(self, metrics: ExecutorMetrics) -> None:
        """Called once after every point has completed."""


class ProgressPrinter(ExecutorHooks):
    """Hooks that narrate progress, one line per completed point."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def on_run_start(self, total_points: int) -> None:
        self._total = total_points
        self._done = 0

    def on_point_done(self, run: RunResult) -> None:
        self._done += 1
        spec = run.spec
        source = "cache" if run.cached else f"{run.wall_time_s:.1f}s"
        print(
            f"[{self._done}/{self._total}] {spec.routing} {spec.pattern} "
            f"load={spec.load:g} ({source})",
            file=self.stream,
            flush=True,
        )

    def on_run_end(self, metrics: ExecutorMetrics) -> None:
        rejected = (
            f", {metrics.cache_rejected} rejected cache entries re-simulated"
            if metrics.cache_rejected
            else ""
        )
        print(
            f"done: {metrics.points_completed} points "
            f"({metrics.cache_hits} cached, {metrics.simulated} simulated, "
            f"{metrics.cycles_simulated} cycles{rejected}) "
            f"in {metrics.wall_time_s:.1f}s",
            file=self.stream,
            flush=True,
        )


def encode_point_record(run: RunResult) -> str:
    """A point's record: the one serialization of its numbers.

    Compact JSON with sorted keys, holding the spec (for auditability
    and collision detection), the result, and the resilience ledger and
    obs metrics summary when there are any.  A result-cache entry is
    exactly these bytes, and a run manifest embeds them unparsed, so a
    point is encoded once however many files carry it.
    """
    from repro.analysis.results_io import result_to_dict

    payload = {
        "version": SPEC_VERSION,
        "spec": run.spec.to_dict(),
        "result": result_to_dict(run.result),
    }
    if run.resilience is not None:
        payload["resilience"] = run.resilience
    if run.metrics is not None:
        payload["obs"] = run.metrics
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: A cache entry's file name: the spec's SHA-256 content hash.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


class _CacheEntry(NamedTuple):
    """One decoded cache entry, plus the entry's text as read (the
    point record a manifest embeds)."""

    result: SimulationResult
    resilience: Optional[dict]
    metrics: Optional[dict]
    record: str


class ResultCache:
    """On-disk result store keyed by spec content hash.

    One JSON file per point, named ``<hash>.json``, holding the point's
    record (:func:`encode_point_record`).  Entries are written through
    :func:`~repro.obs.envelope.replace_file` (temp file, unlink the old
    entry, rename onto the free name): an interrupted store leaves the
    old entry and no temp file, and a concurrent reader sees either a
    whole entry or a plain miss.  Entries written indented by earlier
    versions read the same.  The directory may be shared with run
    manifests; only ``<hash>.json`` names count as entries.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(
        self, spec: ExperimentSpec, spec_hash: Optional[str] = None
    ) -> Path:
        """Where this spec's result lives (whether or not it exists).

        ``spec_hash`` is the spec's content hash when the caller already
        holds it (the executor hashes each point once, for its cache
        entry and its manifest alike); computed when ``None``.
        """
        return self.root / f"{spec_hash or spec.content_hash()}.json"

    def read_entry(
        self, spec: ExperimentSpec, spec_hash: Optional[str] = None
    ) -> Tuple[Optional[_CacheEntry], Optional[str]]:
        """The cached entry, plus why an existing entry was rejected.

        Returns ``(entry, problem)``.  A hit is ``(entry, None)``: the
        cached result, resilience summary, obs metrics summary and
        record text, either summary ``None`` when the entry was stored
        without it (fault-free points, uninstrumented points, older
        archives).  A missing file is a plain miss, ``(None, None)``.  A
        file that is there but unusable — it does not parse, it holds
        another spec, its ``result`` is malformed, or its obs summary is
        in an older layout than :data:`~repro.obs.metrics
        .OBS_SCHEMA_VERSION` — is ``(None, <what is wrong>)``, so the
        caller can count it instead of mistaking it for a miss, and the
        point is re-simulated and its entry rewritten.  ``spec_hash`` as
        for :meth:`path_for`.
        """
        from repro.analysis.results_io import result_from_dict
        from repro.obs.metrics import OBS_SCHEMA_VERSION

        path = self.path_for(spec, spec_hash)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, None
        except OSError as exc:
            return None, f"unreadable ({exc.__class__.__name__})"
        try:
            payload = json.loads(text)
        except ValueError:
            return None, "not valid JSON"
        if not isinstance(payload, dict) or payload.get("spec") != spec.to_dict():
            return None, "holds a different spec"
        try:
            result = result_from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None, "malformed result"
        extras = payload.get("resilience")
        metrics = payload.get("obs")
        if isinstance(metrics, dict):
            version = metrics.get("obs_schema_version")
            if version != OBS_SCHEMA_VERSION:
                return None, f"obs summary has obs_schema_version {version!r}"
        return _CacheEntry(
            result,
            extras if isinstance(extras, dict) else None,
            metrics if isinstance(metrics, dict) else None,
            text,
        ), None

    def store(self, run: RunResult, spec_hash: Optional[str] = None) -> str:
        """Persist one point's record, replacing any earlier entry;
        returns the record written.  ``spec_hash`` as for
        :meth:`path_for`."""
        record = encode_point_record(run)
        with replace_file(self.path_for(run.spec, spec_hash)) as handle:
            handle.write(record)
        return record

    def __len__(self) -> int:
        return sum(
            1 for path in self.root.glob("*.json") if _ENTRY_NAME.fullmatch(path.name)
        )


def _run_point_job(spec: ExperimentSpec) -> RunResult:
    """Simulate one spec through this process's warm context for its
    ``(topology, routing)`` pair (a faulted point too: its degraded
    tables are read off the context's healthy table)."""
    return spec.run_full(warm=get_warm_context(spec.topology, spec.routing))


def _run_batch_job(specs: List[ExperimentSpec]) -> List[RunResult]:
    """Worker entry point: simulate a chunk of same-key specs in order,
    so the chunk's points fill one warm context's compiled route table
    as they go.

    Module-level so it pickles under every multiprocessing start method.
    """
    return [_run_point_job(spec) for spec in specs]


class SweepExecutor:
    """Runs simulation points, optionally in parallel and cached.

    Args:
        jobs: worker processes; ``1`` (the default) runs every point
            in-process with no pool, which is the deterministic path
            tests use.  ``None`` means one worker per CPU
            (``os.cpu_count()``).  Worker processes persist across
            ``run_points`` calls, so their warm contexts keep paying
            off; call :meth:`close` (or use the executor as a context
            manager) to release them.
        cache_dir: directory for the on-disk result cache; ``None``
            disables caching.
        hooks: progress callbacks; defaults to silent.
        manifest_dir: directory to write one structured run manifest
            per completed point (spec hash, git describe, timings,
            certification verdict, resilience ledger, metric
            summaries — see :mod:`repro.obs.manifest`); ``None``
            disables manifests.  Cache hits write manifests too,
            marked ``cached``.
        require_certification: statically certify every unique
            ``(topology, routing)`` pair before launching its points —
            deadlock freedom, connectivity, and livelock freedom per
            :mod:`repro.verify` — and refuse the run (raising
            :class:`repro.verify.CertificationError` with the refuting
            witness) if any pair fails.  A refuted algorithm would wedge
            or wander the simulator anyway; the gate converts hours of
            wasted sweep into an immediate, explained failure.

    Points sharing a ``(topology, routing)`` key reuse one warm context
    per process (shared topology/routing objects and the key's route
    table), and parallel work is batched by key to maximize that reuse.
    Results are identical for any ``jobs`` value and to a cold
    :meth:`ExperimentSpec.run_full`: each point is fully determined by
    its spec.  The executor only changes where and when points run.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        hooks: Optional[ExecutorHooks] = None,
        require_certification: bool = False,
        manifest_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.hooks = hooks if hooks is not None else ExecutorHooks()
        self.last_metrics: Optional[ExecutorMetrics] = None
        self.require_certification = require_certification
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self._certified: set = set()
        # Persistent worker pool (jobs > 1), created on first parallel
        # run and kept across calls.
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- worker-pool lifecycle ----------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            pool = self._pool
        except AttributeError:
            return
        if pool is not None:
            pool.shutdown(wait=False)

    # -- certification gate -------------------------------------------

    def _certify_points(self, points: Sequence[PointSpec]) -> None:
        """Certify each unique ``(topology, routing)`` pair once.

        No-op unless ``require_certification`` is set.  Certified pairs
        are remembered for the executor's lifetime, so sweeps over many
        loads pay the (sub-second) static check once per algorithm.

        Raises:
            repro.verify.CertificationError: when a pair fails any
                static check; the message carries the witnesses.
        """
        if not self.require_certification:
            return
        from repro.verify import certify

        for point in points:
            key = (point.spec.topology, point.spec.routing)
            if key in self._certified:
                continue
            topology = parse_topology(point.spec.topology)
            routing = make_routing(point.spec.routing, topology)
            certify(topology, routing, topology_label=point.spec.topology)
            self._certified.add(key)

    # -- core ---------------------------------------------------------

    def run_points(self, points: Sequence[PointSpec]) -> List[RunResult]:
        """Run every point and return their records in input order.

        With ``require_certification`` set, every unique
        ``(topology, routing)`` pair is statically certified before any
        point runs.
        """
        return list(self._runs(points))

    def _runs(self, points: Sequence[PointSpec]) -> Generator[RunResult, None, None]:
        """Every point's record, in input order.

        With ``jobs == 1`` each point runs in-process as it is pulled, so
        a caller that stops pulling (a sweep's saturation cut) never
        simulates the rest; with ``jobs > 1`` every point runs on the
        first pull.  The run ends, and ``on_run_end`` fires, when the
        iterator is exhausted or closed.
        """
        self._certify_points(points)
        started = time.perf_counter()
        metrics = ExecutorMetrics(points_total=len(points))
        self.hooks.on_run_start(len(points))
        if self.jobs == 1:
            runs: Iterable[RunResult] = (
                self._execute_one(point, metrics) for point in points
            )
        else:
            runs = self._run_parallel(points, metrics)
        try:
            yield from runs
        except GeneratorExit:  # the caller stopped pulling: the run ends
            self._finish(metrics, started)
            raise
        self._finish(metrics, started)

    def _finish(self, metrics: ExecutorMetrics, started: float) -> None:
        metrics.wall_time_s = time.perf_counter() - started
        self.last_metrics = metrics
        self.hooks.on_run_end(metrics)

    def _write_manifest(
        self, run: RunResult, record: Optional[str], spec_hash: Optional[str]
    ) -> None:
        """Persist one point's structured run manifest (if enabled).

        ``record`` and ``spec_hash`` are the point's cache entry as
        written or read and the content hash it is filed under; the
        manifest embeds the one and is keyed by the other, and without a
        cache computes both itself."""
        if self.manifest_dir is None:
            return
        from repro.obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            run,
            certification={
                "required": self.require_certification,
                "certified": (
                    (run.spec.topology, run.spec.routing) in self._certified
                ),
            },
            executor={"jobs": self.jobs, "cache_problem": run.cache_problem},
            record=record,
            spec_hash=spec_hash,
        )
        write_manifest(manifest, self.manifest_dir)

    def _from_cache(
        self, point: PointSpec, metrics: ExecutorMetrics
    ) -> Tuple[Optional[RunResult], Optional[str]]:
        """The point's record from the cache, or ``(None, problem)``
        where ``problem`` says why an entry that exists was rejected
        (``None`` for a plain miss)."""
        if self.cache is None:
            return None, None
        spec_hash = point.spec.content_hash()
        entry, problem = self.cache.read_entry(point.spec, spec_hash)
        if entry is None:
            if problem is not None:
                metrics.cache_rejected += 1
            return None, problem
        run = RunResult(
            spec=point.spec,
            result=entry.result,
            resilience=entry.resilience,
            metrics=entry.metrics,
            cached=True,
            series=point.series,
            index=point.index,
        )
        metrics.cache_hits += 1
        metrics.points_completed += 1
        self._write_manifest(run, entry.record, spec_hash)
        self.hooks.on_point_done(run)
        return run, None

    def _complete_fresh(
        self,
        point: PointSpec,
        run: RunResult,
        metrics: ExecutorMetrics,
        cache_problem: Optional[str],
    ) -> RunResult:
        run = dataclasses.replace(
            run, series=point.series, index=point.index,
            cache_problem=cache_problem,
        )
        spec_hash: Optional[str] = None
        record: Optional[str] = None
        if self.cache is not None:
            spec_hash = point.spec.content_hash()
            record = self.cache.store(run, spec_hash)
        metrics.simulated += 1
        metrics.points_completed += 1
        metrics.cycles_simulated += point.spec.config.total_cycles
        metrics.warm_points += 1
        self._write_manifest(run, record, spec_hash)
        self.hooks.on_point_done(run)
        return run

    def _execute_one(
        self, point: PointSpec, metrics: ExecutorMetrics
    ) -> RunResult:
        """Cache-check then simulate one point in-process."""
        run, cache_problem = self._from_cache(point, metrics)
        if run is not None:
            return run
        self.hooks.on_point_start(point)
        return self._complete_fresh(
            point, _run_point_job(point.spec), metrics, cache_problem
        )

    def _run_parallel(
        self, points: Sequence[PointSpec], metrics: ExecutorMetrics
    ) -> List[RunResult]:
        """Every point's record in input order: cached ones read, and the
        missing ones fanned out over the persistent pool.

        Missing points are grouped by ``(topology, routing)`` key and
        each group is split into at most ``jobs`` strided chunks
        (striding interleaves cheap low-load and expensive saturated
        points), so a worker runs same-key points back to back against
        one warm context.
        """
        runs: List[Optional[RunResult]] = [None] * len(points)
        # Point index -> why its cache entry was rejected (None: a miss).
        missing: Dict[int, Optional[str]] = {}
        for i, point in enumerate(points):
            run, cache_problem = self._from_cache(point, metrics)
            if run is not None:
                runs[i] = run
            else:
                missing[i] = cache_problem
        groups: Dict[Tuple[str, str], List[int]] = {}
        for i in missing:
            spec = points[i].spec
            groups.setdefault((spec.topology, spec.routing), []).append(i)
        futures = {}
        for indices in groups.values():
            chunk_count = min(self.jobs, len(indices))
            chunks = [indices[c::chunk_count] for c in range(chunk_count)]
            for chunk in chunks:
                for i in chunk:
                    self.hooks.on_point_start(points[i])
                future = self._ensure_pool().submit(
                    _run_batch_job, [points[i].spec for i in chunk]
                )
                futures[future] = chunk
                metrics.batches += 1
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = futures[future]
                    for i, run in zip(chunk, future.result()):
                        runs[i] = self._complete_fresh(
                            points[i], run, metrics, missing[i]
                        )
        except BrokenProcessPool:
            # A dead worker poisons the whole pool; drop it so the next
            # run_points call starts a fresh one.
            self.close()
            raise
        return [run for run in runs if run is not None]

    # -- conveniences -------------------------------------------------

    def sweep(
        self,
        topology: Union[str, Topology],
        algorithm: str,
        pattern: str,
        loads: Sequence[float],
        config: Optional[SimulationConfig] = None,
        sizes: SizeDistribution = PAPER_SIZES,
        seed: int = 1,
        stop_after_saturation: int = 1,
        obs: Optional[ObsSpec] = None,
    ):
        """Measure one latency-throughput curve through the executor.

        The stop rule is
        :func:`~repro.analysis.sweep.truncate_at_saturation`: the sweep
        stops ``stop_after_saturation`` consecutive unsustainable points
        past saturation.  With ``jobs == 1`` the points are run lazily
        as the rule pulls them, so later points are never simulated;
        with ``jobs > 1`` all loads are dispatched up front and the rule
        cuts the sampled curve — per-point values are identical either
        way.

        With ``obs`` set, every point collects metrics (bit-invisible
        to its result); pair with ``manifest_dir`` to persist them.

        Returns:
            The measured :class:`~repro.analysis.sweep.SweepSeries`.
        """
        from repro.analysis.sweep import (
            SweepPoint,
            SweepSeries,
            truncate_at_saturation,
        )

        spec_string = (
            topology if isinstance(topology, str) else topology_spec(topology)
        )
        base = ExperimentSpec(
            topology=spec_string,
            routing=algorithm,
            pattern=pattern,
            load=0.0,
            sizes=sizes.choices,
            config=ConfigSpec.from_config(config),
            seed=seed,
            obs=obs,
        )
        # The display names the series carries (the registry may label
        # an algorithm differently than its key), off the key's context.
        warm = get_warm_context(base.topology, base.routing)
        series_name = warm.routing.name
        pattern_name = warm.pattern(base.pattern).name

        points = [
            PointSpec(
                spec=dataclasses.replace(base, load=load),
                series=series_name,
                index=i,
            )
            for i, load in enumerate(loads)
        ]

        runs = self._runs(points)
        sweep_points = truncate_at_saturation(
            (SweepPoint.from_result(run.result) for run in runs),
            stop_after_saturation,
        )
        runs.close()
        return SweepSeries(series_name, pattern_name, sweep_points)
