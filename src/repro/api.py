"""The stable programmatic API: one import for the whole harness.

Programmatic users should import from here rather than from individual
submodules (and especially not from :mod:`repro.cli`); this facade is
what stays stable as the internals are resharded for scale.

The single entry point is :func:`run`.  Give it a spec, or name the
point inline with keywords; either way it returns a
:class:`~repro.analysis.executor.RunResult`, the one per-point record:
the simulation result plus the optional sidecars (resilience ledger,
obs metrics) and how the point ran (wall time, cache provenance).
:meth:`ExperimentSpec.run_full` and :meth:`SweepExecutor.run_points`
return the same record, and the manifest and cache writers take it.
For example::

    from repro.api import ObsSpec, run

    out = run(topology="mesh:16x16", routing="negative-first",
              pattern="transpose", load=0.2, obs=True)
    print(out.result.avg_latency_cycles)
    print(out.metrics["counters"])          # bit-invisible sampling

    spec = out.spec                          # reusable, hashable
    again = run(spec, cache_dir=".sweep-cache")   # cached re-run

Sweeps and fault sweeps keep their dedicated drivers
(:meth:`SweepExecutor.sweep`, :func:`fault_sweep`), both reachable from
here, and algorithm synthesis runs through :func:`run_synthesis` with a
:class:`SynthSpec` (see ``docs/synthesis.md``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple, Union

from repro.analysis.executor import (
    ConfigSpec,
    ExecutorHooks,
    ExecutorMetrics,
    ExperimentSpec,
    PointSpec,
    ProgressPrinter,
    ResilienceSpec,
    ResultCache,
    RunResult,
    SweepExecutor,
)
from repro.analysis.sweep import (
    SweepPoint,
    SweepSeries,
    default_loads,
    truncate_at_saturation,
)
from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.obs.metrics import MetricsCollector
from repro.obs.report import render_manifest_report
from repro.obs.spec import ObsSpec
from repro.resilience import (
    FaultController,
    FaultSchedule,
    FaultSweepResult,
    fault_sweep,
    render_fault_table,
)
from repro.routing.registry import (
    UnknownNameError,
    available_algorithms,
    canonical_name,
    make_routing,
)
from repro.sim.config import SimulationConfig
from repro.sim.stats import SimulationResult
from repro.synth import (
    SynthesisResult,
    SynthSpec,
    render_synthesis,
    run_synthesis,
)
from repro.topology.base import Topology
from repro.topology.spec import parse_topology, topology_spec
from repro.traffic.permutations import available_patterns, make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution

__all__ = [
    # The facade.
    "run",
    "RunResult",
    # Experiment descriptions.
    "ExperimentSpec",
    "ConfigSpec",
    "ResilienceSpec",
    "ObsSpec",
    "PointSpec",
    # Execution engine.
    "SweepExecutor",
    "ResultCache",
    "ExecutorHooks",
    "ExecutorMetrics",
    "ProgressPrinter",
    # Observability.
    "MetricsCollector",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "render_manifest_report",
    # Runtime fault injection.
    "FaultSchedule",
    "FaultController",
    "fault_sweep",
    "FaultSweepResult",
    "render_fault_table",
    # Sweep vocabulary.
    "default_loads",
    "truncate_at_saturation",
    "SweepPoint",
    "SweepSeries",
    "SimulationConfig",
    "SimulationResult",
    # Algorithm synthesis.
    "SynthSpec",
    "SynthesisResult",
    "run_synthesis",
    "render_synthesis",
    # Registries and specs.
    "make_routing",
    "available_algorithms",
    "make_pattern",
    "available_patterns",
    "canonical_name",
    "UnknownNameError",
    "parse_topology",
    "topology_spec",
    # Workload sizing.
    "PAPER_SIZES",
    "SizeDistribution",
]

_UNSET = object()


def _coerce_sizes(
    sizes: Union[SizeDistribution, Sequence[Tuple[int, float]], None],
) -> Tuple[Tuple[int, float], ...]:
    if sizes is None:
        return PAPER_SIZES.choices
    if isinstance(sizes, SizeDistribution):
        return sizes.choices
    return tuple((int(s), float(p)) for s, p in sizes)


def _coerce_config(
    config: Union[SimulationConfig, ConfigSpec, None],
) -> ConfigSpec:
    if config is None:
        return ConfigSpec()
    if isinstance(config, ConfigSpec):
        return config
    return ConfigSpec.from_config(config)


def _coerce_obs(obs: Union[ObsSpec, bool, None]) -> Optional[ObsSpec]:
    if obs is None or obs is False:
        return None
    if obs is True:
        return ObsSpec()
    return obs


def run(
    spec: Optional[ExperimentSpec] = None,
    *,
    topology: Union[str, Topology, None] = None,
    routing: Optional[str] = None,
    pattern: Optional[str] = None,
    load: Optional[float] = None,
    sizes: Union[SizeDistribution, Sequence[Tuple[int, float]], None] = None,
    config: Union[SimulationConfig, ConfigSpec, None] = None,
    seed: int = 1,
    resilience: Optional[ResilienceSpec] = None,
    obs: Union[ObsSpec, bool, None] = None,
    cache_dir: Optional[str] = None,
    manifest_dir: Optional[str] = None,
) -> RunResult:
    """Run one simulation point and return everything it produced.

    The facade over every run path: plain, faulted (``resilience``),
    instrumented (``obs``), cached (``cache_dir``), and manifest-writing
    (``manifest_dir``) — all combinations return the same
    :class:`RunResult` shape.

    Describe the point either with a ready-made
    :class:`ExperimentSpec`::

        run(spec)
        run(spec, obs=True, cache_dir=".cache")

    or inline with keywords (all arguments besides ``spec`` are
    keyword-only)::

        run(topology="mesh:16x16", routing="west-first",
            pattern="uniform", load=0.1, seed=3)

    Args:
        spec: a complete point description; mutually exclusive with
            ``topology``/``routing``/``pattern``/``load``/``sizes``/
            ``config``/``seed``.  ``resilience`` and ``obs`` may still
            be given to override the spec's own settings.
        topology: topology instance or spec string (``"mesh:16x16"``).
        routing: routing algorithm registry name.  An instance raises
            :class:`TypeError`: a spec carries the name only, so the
            instance's own settings would be silently replaced.
        pattern: traffic pattern registry name.
        load: offered load in flits per node per cycle.
        sizes: packet-size distribution (defaults to the paper's mix).
        config: a :class:`SimulationConfig` or :class:`ConfigSpec`.
        seed: workload RNG seed.
        resilience: optional runtime fault injection spec.
        obs: observability — ``True`` for default collection, or an
            :class:`ObsSpec` for tuned knobs.  Bit-invisible to the
            result.
        cache_dir: reuse/populate an on-disk result cache.
        manifest_dir: write a structured run manifest for the point.

    Returns:
        The point's :class:`RunResult` (result plus resilience ledger,
        metrics summary, wall time and cache provenance).  Without
        ``cache_dir`` and ``manifest_dir`` it is a cold
        :meth:`ExperimentSpec.run_full`; otherwise the executor's record,
        as is.
    """
    if spec is not None:
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "run() takes an ExperimentSpec positionally; name the "
                "point with keyword arguments instead "
                "(run(topology=..., routing=..., ...))"
            )
        named = {
            "topology": topology,
            "routing": routing,
            "pattern": pattern,
            "load": load,
            "sizes": sizes,
            "config": config,
        }
        clashing = sorted(name for name, value in named.items() if value is not None)
        if clashing or seed != 1:
            clashing = clashing or ["seed"]
            raise TypeError(
                f"run() got both a spec and point fields {clashing}; "
                "use dataclasses.replace(spec, ...) to vary a spec"
            )
        if resilience is not None:
            spec = dataclasses.replace(spec, resilience=resilience)
        if obs is not None:
            spec = dataclasses.replace(spec, obs=_coerce_obs(obs))
    else:
        missing = [
            name
            for name, value in (
                ("topology", topology),
                ("routing", routing),
                ("pattern", pattern),
                ("load", load),
            )
            if value is None
        ]
        if missing:
            raise TypeError(
                f"run() needs a spec or the point fields {missing}"
            )
        if not isinstance(routing, str):
            raise TypeError(
                f"run() takes routing as a registry name, not a "
                f"{type(routing).__name__}: a spec would rebuild the "
                "algorithm from its name and drop the instance's settings; "
                "run a routing instance with repro.sim.make_simulator"
            )
        if isinstance(topology, Topology):
            topology = topology_spec(topology)
        assert topology is not None and pattern is not None and load is not None
        spec = ExperimentSpec(
            topology=topology,
            routing=routing,
            pattern=pattern,
            load=float(load),
            sizes=_coerce_sizes(sizes),
            config=_coerce_config(config),
            seed=seed,
            resilience=resilience,
            obs=_coerce_obs(obs),
        )

    if cache_dir is None and manifest_dir is None:
        return spec.run_full()
    executor = SweepExecutor(
        jobs=1, cache_dir=cache_dir, manifest_dir=manifest_dir
    )
    (out,) = executor.run_points([PointSpec(spec=spec)])
    return out
