"""The layer table and the outside-in layer replay of a traced pass.

``ENTRY_POINTS`` is the one place that names a function inside a layer.
Everything the replay calls is looked up there by :func:`resolve`; when a
name has gone (``core="flat"`` after ROADMAP item 1, say) the section
that needed it reports its metrics as ``None`` with the reason, and the
rest of the run is unaffected.

The replay re-executes a workload's points by hand, layer by layer, each
call inside a span.  A section takes the workload's own inputs when the
workload has inputs of the kind the section needs (simulation points,
faulted cells, verification targets, synthesis specs) and a small fixed
probe otherwise, so every per-layer metric has a number on every traced
run and a layer's cost is visible even on a workload that bypasses it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional

from spans import Tracer, duration

ENTRY_POINTS = {
    # topology, routing, traffic
    "parse_topology": ("repro.api", "parse_topology"),
    "topology_spec": ("repro.api", "topology_spec"),
    "make_routing": ("repro.api", "make_routing"),
    "make_pattern": ("repro.api", "make_pattern"),
    "SizeDistribution": ("repro.api", "SizeDistribution"),
    "Workload": ("repro.traffic", "Workload"),
    "RouteCache": ("repro.routing", "RouteCache"),
    # analysis.prewarm
    "build_route_table": ("repro.analysis.prewarm", "build_route_table"),
    "serialize_route_table": ("repro.analysis.prewarm", "serialize_route_table"),
    "deserialize_route_table": ("repro.analysis.prewarm", "deserialize_route_table"),
    "get_warm_context": ("repro.analysis.prewarm", "get_warm_context"),
    "prewarm_route_table": ("repro.analysis.prewarm", "prewarm_route_table"),
    # sim
    "WormholeSimulator": ("repro.sim", "WormholeSimulator"),
    "make_simulator": ("repro.sim", "make_simulator"),
    "result_digest": ("repro.sim.digest", "result_digest"),
    # analysis.executor, analysis.results_io
    "ExperimentSpec": ("repro.api", "ExperimentSpec"),
    "ConfigSpec": ("repro.api", "ConfigSpec"),
    "PointSpec": ("repro.api", "PointSpec"),
    "ResilienceSpec": ("repro.api", "ResilienceSpec"),
    "RunResult": ("repro.api", "RunResult"),
    "SweepExecutor": ("repro.api", "SweepExecutor"),
    "ResultCache": ("repro.api", "ResultCache"),
    "resolve_spec": ("repro.api", "resolve_spec"),
    "result_to_dict": ("repro.analysis", "result_to_dict"),
    # obs
    "ObsSpec": ("repro.api", "ObsSpec"),
    "MetricsCollector": ("repro.api", "MetricsCollector"),
    "build_manifest": ("repro.api", "build_manifest"),
    "write_manifest": ("repro.api", "write_manifest"),
    "load_manifest": ("repro.api", "load_manifest"),
    "render_manifest_report": ("repro.api", "render_manifest_report"),
    # resilience
    "FaultSchedule": ("repro.api", "FaultSchedule"),
    "build_controller": ("repro.resilience", "build_controller"),
    # verify
    "recertify": ("repro.verify", "recertify"),
    "PROOF_CHECKERS": ("repro.verify", "PROOF_CHECKERS"),
    "default_targets": ("repro.verify", "default_targets"),
    "verify_target": ("repro.verify", "verify_target"),
    # synth
    "SynthSpec": ("repro.api", "SynthSpec"),
    "synthesis_dims": ("repro.synth", "synthesis_dims"),
    "enumerate_candidates": ("repro.synth", "enumerate_candidates"),
    "classify_candidates": ("repro.synth", "classify_candidates"),
    "certify_candidates": ("repro.synth", "certify_candidates"),
    "scoring_topology": ("repro.synth", "scoring_topology"),
    "adaptiveness_score": ("repro.synth", "adaptiveness_score"),
}


class Unresolved(Exception):
    """A layer entry point is missing or no longer does what it did."""


@functools.lru_cache(maxsize=None)
def resolve(name: str):
    """The object a table entry names, or :class:`Unresolved` with why not."""
    module, attr = ENTRY_POINTS[name]
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as exc:
        raise Unresolved(f"{module}.{attr} is gone ({exc})") from exc


def point_id(spec) -> str:
    """A readable name for one point, used in spans and failure reports."""
    faults = f"/f{spec.resilience.fault_count}" if spec.resilience else ""
    return f"{spec.topology}/{spec.routing}/{spec.pattern}/{spec.load:g}{faults}"


def _total_cycles(config) -> int:
    return config.warmup_cycles + config.measure_cycles + config.drain_cycles


class Replay:
    """Re-executes a workload's inputs through each layer's public calls.

    ``inputs`` comes from ``Workload.replay_inputs()``: ``specs`` (all
    simulation points), ``stride`` (every ``stride``-th one is sampled for
    the costlier sections), ``faulted`` (specs with a resilience block),
    ``targets`` (verification targets), ``synth`` (synthesis specs).  Any
    that is absent is replaced by the probe.
    """

    def __init__(self, tracer: Tracer, inputs: dict, work: Path, seed: int) -> None:
        self.tracer = tracer
        self.work = work
        self.metrics: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}
        self._first_span = len(tracer.spans)
        probe = self._probe_spec(seed)
        self.specs = inputs.get("specs") or [probe]
        self.sample = self.specs[::inputs.get("stride", 1)]
        self.faulted = inputs.get("faulted") or [self._probe_faulted(probe, seed)]
        self.targets = inputs.get("targets")
        self.synth = inputs.get("synth")
        self._keys: Dict[tuple, dict] = {}
        self._warm_results: Dict[str, object] = {}
        self._warm_run_s: Dict[str, float] = {}
        self._obs_summaries: Dict[str, dict] = {}

    # -- probes --------------------------------------------------------

    @staticmethod
    def _probe_spec(seed: int):
        config = resolve("ConfigSpec")(warmup_cycles=50, measure_cycles=150, drain_cycles=50)
        return resolve("ExperimentSpec")(
            topology="mesh:8x8", routing="west-first", pattern="uniform",
            load=0.1, sizes=((4, 0.5), (24, 0.5)), config=config, seed=seed)

    @staticmethod
    def _probe_faulted(probe, seed: int):
        config = resolve("ConfigSpec")(warmup_cycles=100, measure_cycles=400, drain_cycles=100)
        return dataclasses.replace(
            probe, config=config,
            resilience=resolve("ResilienceSpec")(fault_count=2, fault_seed=seed))

    # -- helpers -------------------------------------------------------

    def span(self, name: str, point: Optional[str] = None):
        return self.tracer.span(name, point)

    def _durations(self, name: str) -> List[float]:
        return [duration(s) for s in self.tracer.spans[self._first_span:]
                if s["name"] == name]

    def mean(self, name: str) -> float:
        values = self._durations(name)
        return sum(values) / len(values)

    def total(self, name: str) -> float:
        return sum(self._durations(name))

    def _key_state(self, spec) -> dict:
        """Live objects shared by every replayed point of one
        ``(topology, routing)`` pair, with a raw route source to warm."""
        key = (spec.topology, spec.routing)
        state = self._keys.get(key)
        if state is None:
            topology = resolve("parse_topology")(spec.topology)
            routing = resolve("make_routing")(spec.routing, topology)
            source = (resolve("RouteCache")(routing)
                      if getattr(routing, "cacheable", True) else None)
            state = {"topology": topology, "routing": routing, "source": source,
                     "payload": None}
            self._keys[key] = state
        return state

    def _workload(self, spec, topology):
        pattern = resolve("make_pattern")(spec.pattern, topology)
        return resolve("Workload")(
            pattern=pattern, sizes=resolve("SizeDistribution")(spec.sizes),
            offered_load=spec.load, seed=spec.seed)

    @staticmethod
    def _plain(spec):
        return dataclasses.replace(spec, obs=None, resilience=None)

    # -- driver --------------------------------------------------------

    def run(self) -> None:
        """Run every section; a section that fails nulls only its own metrics."""
        for section, names in self.SECTIONS:
            try:
                values = section(self)
            except Exception as exc:  # boundary: the benchmark must keep running
                reason = f"{section.__name__[1:]}: {type(exc).__name__}: {exc}"
                for name in names:
                    self.metrics[name] = None
                    self.reasons[name] = reason
                continue
            self.metrics.update(values)

    # -- sections ------------------------------------------------------

    def _cold_chain(self) -> dict:
        """A sampled point built and run by hand, cold, next to the same
        point through ``ExperimentSpec.run_full``: what the replay's
        spans cover of the real thing is ``trace.replay_coverage``."""
        covered = reference = 0.0
        lookups = answered = 0
        for index, spec in enumerate(self.sample):
            pid, plain = point_id(spec), self._plain(spec)

            def through_run_full():
                with self.span("replay.run_full", pid) as span:
                    plain.run_full()
                return duration(span)

            def by_hand():
                with self.span("replay.chain", pid):
                    with self.span("topology.parse", pid):
                        topology = resolve("parse_topology")(spec.topology)
                    with self.span("routing.make", pid):
                        routing = resolve("make_routing")(spec.routing, topology)
                    with self.span("traffic.pattern_make", pid):
                        pattern = resolve("make_pattern")(spec.pattern, topology)
                    with self.span("traffic.workload_make", pid):
                        workload = resolve("Workload")(
                            pattern=pattern,
                            sizes=resolve("SizeDistribution")(spec.sizes),
                            offered_load=spec.load, seed=spec.seed)
                    with self.span("sim.construct_cold", pid):
                        simulator = resolve("WormholeSimulator")(
                            routing, workload, spec.config.to_config())
                    with self.span("sim.run_cold", pid):
                        simulator.run()
                return simulator

            # Whichever goes second finds process-wide memo tables warm,
            # so alternate the order to keep the ratio unbiased.
            if index % 2:
                simulator = by_hand()
                reference += through_run_full()
            else:
                reference += through_run_full()
                simulator = by_hand()
            cache = simulator.route_cache
            if cache is not None:
                lookups += cache.hits + cache.prefilled + cache.misses
                answered += cache.hits + cache.prefilled
            with self.span("executor.resolve", pid):
                resolve("resolve_spec")(plain)
            with self.span("executor.spec_hash", pid):
                spec.content_hash()
        for name in ("topology.parse", "routing.make", "traffic.pattern_make",
                     "traffic.workload_make", "sim.construct_cold", "sim.run_cold"):
            covered += self.total(name)
        return {
            "topology.parse_s": self.mean("topology.parse"),
            "routing.make_s": self.mean("routing.make"),
            "traffic.pattern_make_s": self.mean("traffic.pattern_make"),
            "traffic.workload_make_s": self.mean("traffic.workload_make"),
            "routing.cache_hit_ratio": answered / lookups if lookups else 0.0,
            "executor.resolve_s": self.mean("executor.resolve"),
            "executor.spec_hash_s": self.mean("executor.spec_hash"),
            "trace.replay_coverage": covered / reference,
        }

    def _prewarmable(self, spec) -> bool:
        """Whether the key's full table is a function of (node, dest)."""
        state = self._key_state(spec)
        return (state["source"] is not None
                and not getattr(state["routing"], "uses_in_channel", True))

    def _route_tables(self) -> dict:
        """Full route tables per prewarmable key: build, ship, rebuild."""
        unique = {(s.topology, s.routing): s for s in self.specs}.values()
        chosen = ([s for s in unique if self._prewarmable(s)]
                  or [self._probe_spec(self.specs[0].seed)])
        entries = payload_bytes = 0
        for spec in chosen:
            state = self._key_state(spec)
            routing, topology = state["routing"], state["topology"]
            key = f"{spec.topology}/{spec.routing}"
            with self.span("routing.table_build", key):
                table = resolve("build_route_table")(routing)
            with self.span("prewarm.serialize", key):
                payload = resolve("serialize_route_table")(topology, table)
            with self.span("prewarm.deserialize", key):
                resolve("deserialize_route_table")(topology, payload)
            with self.span("prewarm.context_build", key):
                context = resolve("get_warm_context")(spec.topology, spec.routing)
                resolve("prewarm_route_table")(context)
            state["source"].prefill(table)
            state["payload"] = payload
            entries += len(table)
            payload_bytes += len(pickle.dumps(payload))
        return {
            "routing.table_build_s": self.mean("routing.table_build"),
            "routing.table_entries": entries / len(chosen),
            "prewarm.context_build_s": self.mean("prewarm.context_build"),
            "prewarm.serialize_s": self.mean("prewarm.serialize"),
            "prewarm.deserialize_s": self.mean("prewarm.deserialize"),
            "prewarm.payload_bytes": payload_bytes / len(chosen),
        }

    def _warm_runs(self) -> dict:
        """Every point of the workload on the object core with a warm
        route source: the engine's own share of the workload's wall."""
        cycles = executed = moves = prefilled = 0
        for spec in self.specs:
            pid, state = point_id(spec), self._key_state(spec)
            config = spec.config.to_config()
            workload = self._workload(spec, state["topology"])
            with self.span("sim.construct", pid):
                simulator = resolve("WormholeSimulator")(
                    state["routing"], workload, config, route_source=state["source"])
            with self.span("sim.run", pid) as span:
                result = simulator.run()
            self._warm_results[pid] = result
            self._warm_run_s[pid] = duration(span)
            cycles += _total_cycles(config)
            executed += simulator.cycles_executed
            moves += simulator.flit_moves
            cache = simulator.route_cache
            prefilled += cache.prefilled if cache is not None else 0
        run_s = self.total("sim.run")
        return {
            "sim.construct_s": self.mean("sim.construct"),
            "sim.run_s": self.mean("sim.run"),
            "sim.cycles_per_s": cycles / run_s,
            "sim.flit_moves_per_s": moves / run_s,
            "sim.executed_cycle_ratio": executed / cycles,
            "routing.cache_prefilled": prefilled / len(self.specs),
        }

    def _flat_core(self) -> dict:
        """The same sampled points on the flat core, digests compared."""
        digest = resolve("result_digest")
        cycles = matched = 0
        for spec in self.sample:
            pid, state = point_id(spec), self._key_state(spec)
            config = spec.config.to_config()
            workload = self._workload(spec, state["topology"])
            with self.span("flatcore.compile", pid):
                simulator = resolve("make_simulator")(
                    state["routing"], workload, config, core="flat",
                    route_source=state["source"], route_table=state["payload"])
            if getattr(simulator, "core", None) != "flat":
                raise Unresolved("make_simulator(core='flat') built another core")
            with self.span("flatcore.run", pid):
                result = simulator.run()
            cycles += _total_cycles(config)
            matched += digest(result) == digest(self._warm_results[pid])
        return {
            "flatcore.compile_s": self.mean("flatcore.compile"),
            "flatcore.run_s": self.mean("flatcore.run"),
            "flatcore.cycles_per_s": cycles / self.total("flatcore.run"),
            "flatcore.digest_match": matched / len(self.sample),
        }

    def _obs(self) -> dict:
        """A sampled point with the collector on, against the same run
        with it off; then the manifest round trip of what it collected."""
        manifests = self.work / "replay-manifests"
        ratio = size = 0.0
        sample = self.sample[:4]
        for spec in sample:
            pid, state = point_id(spec), self._key_state(spec)
            collector = resolve("MetricsCollector")(spec.obs or resolve("ObsSpec")())
            workload = self._workload(spec, state["topology"])
            simulator = resolve("WormholeSimulator")(
                state["routing"], workload, spec.config.to_config(),
                obs=collector, route_source=state["source"])
            with self.span("obs.run_collect", pid) as span:
                result = simulator.run()
            ratio += duration(span) / self._warm_run_s[pid]
            with self.span("obs.summary", pid):
                summary = collector.summary()
            self._obs_summaries[pid] = summary
            with self.span("obs.manifest_build", pid):
                manifest = resolve("build_manifest")(
                    spec=spec, result=result, wall_time_s=duration(span),
                    cached=False, metrics=summary, git_version="bench-replay")
            with self.span("obs.manifest_write", pid):
                path = resolve("write_manifest")(manifest, manifests)
            size += path.stat().st_size
            with self.span("obs.manifest_load", pid):
                loaded = resolve("load_manifest")(path)
            with self.span("obs.report_render", pid):
                resolve("render_manifest_report")(loaded)
        return {
            "obs.collect_overhead_ratio": ratio / len(sample),
            "obs.summary_ms": self.mean("obs.summary") * 1e3,
            "obs.manifest_build_ms": self.mean("obs.manifest_build") * 1e3,
            "obs.manifest_write_ms": self.mean("obs.manifest_write") * 1e3,
            "obs.manifest_load_ms": self.mean("obs.manifest_load") * 1e3,
            "obs.manifest_bytes": size / len(sample),
            "obs.report_render_ms": self.mean("obs.report_render") * 1e3,
        }

    def _persistence(self) -> dict:
        """Digest, JSON, pickle and result-cache round trips of a result.
        A point that carries an obs spec stores its metrics summary too,
        as the executor does."""
        cache = resolve("ResultCache")(self.work / "replay-cache")
        entry_bytes = pickle_bytes = 0
        for spec in self.sample:
            pid = point_id(spec)
            result = self._warm_results[pid]
            summary = self._obs_summaries.get(pid) if spec.obs is not None else None
            with self.span("sim.digest", pid):
                resolve("result_digest")(result)
            with self.span("results_io.to_json", pid):
                json.dumps(resolve("result_to_dict")(result))
            with self.span("cache.store", pid):
                cache.store(spec, result, metrics=summary)
            entry_bytes += cache.path_for(spec).stat().st_size
            with self.span("cache.load", pid):
                cache.load_entry(spec)
            with self.span("executor.pickle", pid):
                blob = pickle.dumps(resolve("RunResult")(
                    spec=spec, result=result, metrics=summary))
                pickle.loads(blob)
                pickle.loads(pickle.dumps(resolve("PointSpec")(spec=spec)))
            pickle_bytes += len(blob)
        count = len(self.sample)
        return {
            "sim.digest_ms": self.mean("sim.digest") * 1e3,
            "results_io.to_json_ms": self.mean("results_io.to_json") * 1e3,
            "cache.store_ms": self.mean("cache.store") * 1e3,
            "cache.load_ms": self.mean("cache.load") * 1e3,
            "cache.entry_bytes": entry_bytes / count,
            "executor.result_pickle_bytes": pickle_bytes / count,
        }

    def _pool(self) -> dict:
        """Two probe points (two keys, so nothing is prewarmed) through a
        fresh jobs=2 executor twice: the first call pays pool start-up,
        the second only the round trip."""
        probe = self._probe_spec(self.specs[0].seed)
        points = [
            resolve("PointSpec")(spec=dataclasses.replace(probe, routing=routing))
            for routing in ("xy", "west-first")
        ]
        executor = resolve("SweepExecutor")(jobs=2)
        try:
            with self.span("executor.pool_first") as first:
                executor.run_points(points)
            with self.span("executor.pool_second") as second:
                outcomes = executor.run_points(points)
        finally:
            executor.close()
        slowest = max(outcome.wall_time_s for outcome in outcomes)
        return {
            "executor.pool_start_s": duration(first) - duration(second),
            "executor.ipc_roundtrip_ms": (duration(second) - slowest) * 1e3,
        }

    def _resilience(self) -> dict:
        """Faulted cells by hand: schedule, controller, the faulted run,
        one recertification of the final degraded pair, and the same
        algorithm's fault-free run for the overhead ratio."""
        overhead = share = 0.0
        for spec in self.faulted:
            pid = point_id(spec)
            topology = resolve("parse_topology")(spec.topology)
            routing = resolve("make_routing")(spec.routing, topology)
            config = spec.config.to_config()
            window = (config.warmup_cycles, config.warmup_cycles + config.measure_cycles)
            with self.span("resilience.schedule_build", pid):
                resolve("FaultSchedule").random(
                    topology, spec.resilience.fault_count,
                    seed=spec.resilience.fault_seed, window=window,
                    require_connected=spec.resilience.require_connected)
            with self.span("resilience.controller_build", pid):
                controller = resolve("build_controller")(
                    topology, spec.routing, spec.resilience, config)
            simulator = resolve("WormholeSimulator")(
                routing, self._workload(spec, topology), config, resilience=controller)
            with self.span("resilience.faulted_run", pid) as faulted:
                simulator.run()
            proofs = controller.stats.summary()["recertifications"]
            with self.span("resilience.recertify", pid) as proof:
                resolve("recertify")(controller.current_topology,
                                     controller.current_routing)
            healthy = resolve("make_routing")(spec.routing, topology)
            plain = resolve("WormholeSimulator")(
                healthy, self._workload(spec, topology), config)
            with self.span("resilience.plain_run", pid) as baseline:
                plain.run()
            overhead += duration(faulted) / duration(baseline)
            share += proofs * duration(proof) / duration(faulted)
        count = len(self.faulted)
        return {
            "resilience.schedule_build_ms": self.mean("resilience.schedule_build") * 1e3,
            "resilience.controller_build_ms": self.mean("resilience.controller_build") * 1e3,
            "resilience.faulted_run_s": self.mean("resilience.faulted_run"),
            "resilience.fault_overhead_ratio": overhead / count,
            "resilience.recertify_s": self.mean("resilience.recertify"),
            "resilience.recertify_share": share / count,
        }

    def _verify(self) -> dict:
        """Each target through the full suite (per-target times), then
        each of the three proof checkers over all targets."""
        targets = self.targets
        if targets is None:
            targets = resolve("default_targets")(topologies=["mesh:5x4"])
        unexpected = 0
        for target in targets:
            with self.span("verify.target", target.label):
                report = resolve("verify_target")(target)
            unexpected += not report.as_expected
        for checker in resolve("PROOF_CHECKERS"):
            kind = next(k for k in ("deadlock", "connectivity", "livelock")
                        if k in checker.__name__)
            with self.span(f"verify.{kind}"):
                for target in targets:
                    checker(target.topology, target.routing)
        times = sorted(self._durations("verify.target"))
        return {
            "verify.target_p50_ms": times[len(times) // 2] * 1e3,
            "verify.target_p90_ms": times[(len(times) * 9) // 10] * 1e3,
            "verify.deadlock_s": self.total("verify.deadlock"),
            "verify.connectivity_s": self.total("verify.connectivity"),
            "verify.livelock_s": self.total("verify.livelock"),
            "verify.targets": len(targets),
            "verify.unexpected_verdicts": unexpected,
        }

    def _synth(self) -> dict:
        """The synthesis pipeline stage by stage, simulation off."""
        specs = self.synth or [resolve("SynthSpec")("mesh:4x4")]
        candidates_total = classes_total = 0
        for spec in specs:
            topology = resolve("parse_topology")(spec.topology)
            dims = resolve("synthesis_dims")(topology)
            with self.span("synth.enumerate", spec.topology):
                candidates, _ = resolve("enumerate_candidates")(dims, spec.max_candidates)
            with self.span("synth.classify", spec.topology):
                classes = resolve("classify_candidates")(candidates, dims)
            with self.span("synth.certify", spec.topology):
                reports = resolve("certify_candidates")(
                    topology, resolve("topology_spec")(topology),
                    [cls.representative for cls in classes])
            with self.span("synth.score", spec.topology):
                scored_on = resolve("scoring_topology")(topology, spec.score_radix_cap)
                for cls in classes:
                    if reports[cls.name].certified:
                        resolve("adaptiveness_score")(scored_on, cls.representative)
            candidates_total += len(candidates)
            classes_total += len(classes)
        return {
            "synth.enumerate_s": self.total("synth.enumerate"),
            "synth.classify_s": self.total("synth.classify"),
            "synth.certify_s": self.total("synth.certify"),
            "synth.score_s": self.total("synth.score"),
            "synth.candidates": candidates_total,
            "synth.classes": classes_total,
        }

    #: Sections in run order (later ones reuse what earlier ones built),
    #: each with the per-layer metrics it owns.
    SECTIONS: List = [
        (_cold_chain, (
            "topology.parse_s", "routing.make_s", "traffic.pattern_make_s",
            "traffic.workload_make_s", "routing.cache_hit_ratio",
            "executor.resolve_s", "executor.spec_hash_s", "trace.replay_coverage")),
        (_route_tables, (
            "routing.table_build_s", "routing.table_entries",
            "prewarm.context_build_s", "prewarm.serialize_s",
            "prewarm.deserialize_s", "prewarm.payload_bytes")),
        (_warm_runs, (
            "sim.construct_s", "sim.run_s", "sim.cycles_per_s",
            "sim.flit_moves_per_s", "sim.executed_cycle_ratio",
            "routing.cache_prefilled")),
        (_flat_core, (
            "flatcore.compile_s", "flatcore.run_s", "flatcore.cycles_per_s",
            "flatcore.digest_match")),
        (_obs, (
            "obs.collect_overhead_ratio", "obs.summary_ms", "obs.manifest_build_ms",
            "obs.manifest_write_ms", "obs.manifest_load_ms", "obs.manifest_bytes",
            "obs.report_render_ms")),
        (_persistence, (
            "sim.digest_ms", "results_io.to_json_ms", "cache.store_ms",
            "cache.load_ms", "cache.entry_bytes", "executor.result_pickle_bytes")),
        (_pool, ("executor.pool_start_s", "executor.ipc_roundtrip_ms")),
        (_resilience, (
            "resilience.schedule_build_ms", "resilience.controller_build_ms",
            "resilience.faulted_run_s", "resilience.fault_overhead_ratio",
            "resilience.recertify_s", "resilience.recertify_share")),
        (_verify, (
            "verify.target_p50_ms", "verify.target_p90_ms", "verify.deadlock_s",
            "verify.connectivity_s", "verify.livelock_s", "verify.targets",
            "verify.unexpected_verdicts")),
        (_synth, (
            "synth.enumerate_s", "synth.classify_s", "synth.certify_s",
            "synth.score_s", "synth.candidates", "synth.classes")),
    ]

    def warm_run_total_s(self) -> float:
        """Summed ``sim.run`` time over the workload's points (0 if that
        section failed); the numerator of ``sim.run_share``."""
        return self.total("sim.run")
