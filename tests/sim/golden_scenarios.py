"""Seeded scenarios pinned by the golden-digest determinism tests.

Each scenario builds a fresh, fully seeded :class:`WormholeSimulator`
(plus a trace recorder) covering a distinct engine regime: plain-mesh
dimension-order and turn-model routing, saturation load, hypercube
p-cube, multilane virtual-channel configurations (dateline torus and
o1turn), a closed preloaded workload, and a deadlocking run.  The
committed fixture ``golden_digests.json`` holds the digest of each
scenario's result and trace as produced by the reference engine; any
engine change that alters behavior for identical seeds fails the digest
comparison loudly.

``FAULTED_SCENARIOS`` pins the same for runs whose fault schedule is
*not* empty — filtered and (nonminimal turn table) reach-restricted
degradation, retransmission
with capped backoff, fail-then-heal, abort, deep buffers and virtual
channels — plus each run's resilience ledger; every scenario of both
tables also pins the sha256 of its obs metrics summary
(``OBS_SUMMARY_SPEC``).  All of it was generated on the object engine
core before the engine was collapsed onto int ids.

Regenerate fixtures (only when a behavior change is *intended*) with::

    python scripts/regen_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json

from repro.obs.spec import ObsSpec
from repro.resilience import (
    AbortRun,
    DropAndCount,
    FaultController,
    FaultSchedule,
    SourceRetransmit,
    channel_from_label,
    channel_to_dict,
)
from repro.routing.registry import make_routing
from repro.routing.virtual_channels import DatelineTorusRouting, o1turn_routing
from repro.sim.config import SimulationConfig
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.engine import WormholeSimulator
from repro.sim.trace import TraceRecorder
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D
from repro.topology.torus import Torus
from repro.topology.virtual import VirtualChannelTopology
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import SizeDistribution, Workload

__all__ = [
    "ALL_SCENARIOS",
    "FAULTED_SCENARIOS",
    "GOLDEN_SCENARIOS",
    "OBS_SUMMARY_SPEC",
    "build_scenario",
    "obs_summary_digest",
    "schema_1_obs_summary",
    "summary_digest",
]

#: The collector settings behind every pinned ``obs_summary`` digest:
#: every cycle sampled, so per-channel busy/occupancy, the park/wake
#: counters and the timeline all enter the hash.
OBS_SUMMARY_SPEC = ObsSpec(sample_every=1, timeline_window=64,
                           latency_reservoir=256)


def summary_digest(summary: dict) -> str:
    """sha256 of a JSON-ready dict (an obs summary, a resilience
    ledger) in canonical form."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def schema_1_obs_summary(summary: dict) -> dict:
    """An obs summary in the ``obs_schema_version`` 1 layout: the
    channel columns as one ``per_channel`` record per channel, with the
    ``utilization`` and ``mean_occupancy`` floats that layout stored,
    in the key order its collector wrote them."""
    old = dict(summary, obs_schema_version=1)
    channels = summary["channels"]
    if channels is not None:
        samples = channels["samples"]
        old["channels"] = {
            "samples": samples,
            "sample_every": channels["sample_every"],
            "per_channel": [
                {
                    "channel": channel_to_dict(channel_from_label(label)),
                    "busy_samples": busy,
                    "occupancy_sum": occupancy,
                    "utilization": busy / samples if samples else 0.0,
                    "mean_occupancy": occupancy / samples if samples else 0.0,
                }
                for label, busy, occupancy in zip(
                    channels["channel"], channels["busy_samples"],
                    channels["occupancy_sum"],
                )
            ],
        }
    return old


def obs_summary_digest(summary: dict) -> str:
    """The pinned ``obs_summary`` digest of a collector's summary: taken
    over its schema-1 form (:func:`schema_1_obs_summary`), the layout
    the pins were generated in, so every count and every derived float
    is held to what that layout stored."""
    return summary_digest(schema_1_obs_summary(summary))


def _open_sim(topology, routing_name, pattern_name, load, seed, *,
              routing=None, sizes=None, warmup=200, measure=1200, drain=400,
              deadlock_threshold=2_000, buffer_depth=1,
              simulator_cls=WormholeSimulator, **engine_kwargs):
    if routing is None:
        routing = make_routing(routing_name, topology)
    pattern = make_pattern(pattern_name, topology)
    workload = Workload(
        pattern=pattern,
        sizes=sizes or SizeDistribution(((4, 0.5), (24, 0.5))),
        offered_load=load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
        deadlock_threshold=deadlock_threshold,
        buffer_depth=buffer_depth,
    )
    trace = TraceRecorder(max_events=200_000)
    sim = simulator_cls(routing, workload, config, trace=trace,
                        **engine_kwargs)
    return sim, trace


def _mesh6_xy_low(**kw):
    return _open_sim(Mesh2D(6, 6), "xy", "uniform", 0.10, seed=11, **kw)


def _mesh6_west_first_transpose(**kw):
    return _open_sim(Mesh2D(6, 6), "west-first", "transpose", 0.30, seed=12, **kw)


def _mesh6_west_first_nofault_resilience(**kw):
    # The transpose scenario with an idle fault controller attached: the
    # resilience hooks must be bit-invisible when the schedule is empty,
    # so this digest must equal mesh6-west-first-transpose's exactly.
    return _mesh6_west_first_transpose(
        resilience=FaultController(FaultSchedule(())), **kw
    )


def _mesh8_negative_first_saturated(**kw):
    return _open_sim(Mesh2D(8, 8), "negative-first", "uniform", 0.45, seed=13,
                     measure=1500, drain=500, **kw)


def _cube5_pcube(**kw):
    return _open_sim(Hypercube(5), "p-cube", "uniform", 0.12, seed=14, **kw)


def _torus44_dateline(**kw):
    vc = VirtualChannelTopology(Torus(4, 4), 2)
    return _open_sim(vc, None, "uniform", 0.15, seed=15,
                     routing=DatelineTorusRouting(vc), **kw)


def _mesh44_o1turn(**kw):
    vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
    return _open_sim(vc, None, "transpose", 0.20, seed=16,
                     routing=o1turn_routing(vc), **kw)


def _closed_preload(**kw):
    # A zero-load run driven entirely by preloaded messages: exercises
    # injection serialization and the idle tail after the last delivery.
    mesh = Mesh2D(5, 5)
    routing = make_routing("xy", mesh)
    workload = Workload(
        pattern=make_pattern("uniform", mesh),
        sizes=SizeDistribution.fixed(6),
        offered_load=0.0,
        seed=17,
    )
    config = SimulationConfig(
        warmup_cycles=0, measure_cycles=600, drain_cycles=0, max_packets=0
    )
    preload = [
        ((0, 0), (4, 4), 6, 0.0),
        ((0, 0), (2, 1), 3, 0.0),
        ((4, 0), (0, 4), 9, 5.0),
        ((2, 2), (3, 2), 1, 40.0),
    ]
    trace = TraceRecorder(max_events=200_000)
    simulator_cls = kw.pop("simulator_cls", WormholeSimulator)
    sim = simulator_cls(routing, workload, config, preload=preload,
                        trace=trace, **kw)
    return sim, trace


def _figure1_deadlock(**kw):
    # The Figure 1 circular wait: pins the deadlock watchdog's exact
    # firing cycle and the aborted run's partial statistics.
    mesh = Mesh2D(4, 4)
    routing = unrestricted_adaptive_routing(mesh)
    from repro.sim.deadlock import RoutableUniformTraffic

    workload = Workload(
        pattern=RoutableUniformTraffic(routing),
        sizes=SizeDistribution.fixed(16),
        offered_load=0.5,
        seed=3,
    )
    config = SimulationConfig(
        warmup_cycles=0, measure_cycles=20_000, drain_cycles=0,
        deadlock_threshold=500,
    )
    trace = TraceRecorder(max_events=200_000)
    simulator_cls = kw.pop("simulator_cls", WormholeSimulator)
    sim = simulator_cls(routing, workload, config, trace=trace, **kw)
    return sim, trace


#: name -> builder(**engine_kwargs) -> (simulator, trace)
GOLDEN_SCENARIOS = {
    "mesh6-xy-uniform-low": _mesh6_xy_low,
    "mesh6-west-first-transpose": _mesh6_west_first_transpose,
    "mesh6-west-first-nofault-resilience": _mesh6_west_first_nofault_resilience,
    "mesh8-negative-first-saturated": _mesh8_negative_first_saturated,
    "cube5-pcube-uniform": _cube5_pcube,
    "torus44-dateline-vc": _torus44_dateline,
    "mesh44-o1turn-vc": _mesh44_o1turn,
    "mesh5-closed-preload": _closed_preload,
    "mesh4-figure1-deadlock": _figure1_deadlock,
}


def build_scenario(name: str, **engine_kwargs):
    """Build one named scenario; returns ``(simulator, trace)``."""
    return GOLDEN_SCENARIOS[name](**engine_kwargs)


# ----------------------------------------------------------------------
# Runs with a live fault schedule


def _faulted(topology, routing_name, load, seed, *, faults, fault_seed,
             policy, heal_after=None, routing=None, pattern="uniform", **kw):
    """An open run under ``faults`` seed-drawn link failures striking in
    the first 600 measured cycles.  How the routing degrades follows
    from the routing (``repro.resilience.controller.degrade``); every
    degraded table is re-certified."""
    schedule = FaultSchedule.random(
        topology, faults, seed=fault_seed, window=(200, 800),
        heal_after=heal_after,
    )
    controller = FaultController(schedule, policy)
    sim, trace = _open_sim(
        topology, routing_name, pattern, load, seed, routing=routing,
        drain=800, resilience=controller, **kw
    )
    return sim, trace, controller


def _mesh6_xy_faults_drop(**kw):
    return _faulted(Mesh2D(6, 6), "xy", 0.10, 21, faults=4, fault_seed=3,
                    policy=DropAndCount(), **kw)


def _mesh6_west_first_faults_drop(**kw):
    return _faulted(Mesh2D(6, 6), "west-first", 0.25, 22, faults=5,
                    fault_seed=4, policy=DropAndCount(), **kw)


def _mesh6_nonminimal_rebuild(**kw):
    return _faulted(Mesh2D(6, 6), "west-first-nonminimal", 0.12, 23,
                    faults=5, fault_seed=4, policy=DropAndCount(), **kw)


def _mesh6_xy_retransmit_deep(**kw):
    # Eight faults against a three-attempt budget with the backoff cap
    # at twice the base delay: retries hit the cap, and some give up.
    # buffer_depth=2 sends the run through the generic mover.
    return _faulted(Mesh2D(6, 6), "xy", 0.10, 24, faults=8, fault_seed=1,
                    policy=SourceRetransmit(base_delay=8, delay_cap=16,
                                            max_attempts=3),
                    buffer_depth=2, **kw)


def _mesh6_nonminimal_fail_heal(**kw):
    # Every fault heals 150 cycles after it strikes, so the run ends on
    # the healthy routing it started with.
    return _faulted(Mesh2D(6, 6), "west-first-nonminimal", 0.12, 25,
                    faults=4, fault_seed=3, heal_after=150,
                    policy=SourceRetransmit(base_delay=4, delay_cap=32,
                                            max_attempts=6), **kw)


def _mesh6_xy_abort(**kw):
    return _faulted(Mesh2D(6, 6), "xy", 0.10, 26, faults=8, fault_seed=1,
                    policy=AbortRun(), **kw)


def _mesh44_o1turn_vc_faults(**kw):
    vc = VirtualChannelTopology(Mesh2D(4, 4), 2)
    return _faulted(vc, None, 0.20, 27, faults=4, fault_seed=3,
                    policy=DropAndCount(), routing=o1turn_routing(vc),
                    pattern="transpose", **kw)


#: name -> builder(**engine_kwargs) -> (simulator, trace, controller)
FAULTED_SCENARIOS = {
    "mesh6-xy-faults-drop": _mesh6_xy_faults_drop,
    "mesh6-west-first-faults-drop": _mesh6_west_first_faults_drop,
    "mesh6-nonminimal-rebuild-drop": _mesh6_nonminimal_rebuild,
    "mesh6-xy-retransmit-deep": _mesh6_xy_retransmit_deep,
    "mesh6-nonminimal-fail-heal": _mesh6_nonminimal_fail_heal,
    "mesh6-xy-abort": _mesh6_xy_abort,
    "mesh44-o1turn-vc-faults": _mesh44_o1turn_vc_faults,
}

#: Every pinned scenario: the faulted builders return their controller
#: third (read the ledger off ``controller.stats.summary()``), so unpack
#: a build as ``sim, trace, *controller``.
ALL_SCENARIOS = {**GOLDEN_SCENARIOS, **FAULTED_SCENARIOS}
