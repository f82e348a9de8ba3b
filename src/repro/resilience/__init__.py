"""Runtime fault injection and recovery (``repro resilience``).

The paper's Section 1 motivates adaptive routing with fault tolerance:
adaptiveness "provides alternative paths for packets that encounter
faulty hardware".  This package makes faults *happen* during a run
instead of only at construction time:

* :class:`FaultSchedule` — deterministic, seed-derived, serializable
  link fail/heal events.
* :class:`FaultController` — replays the schedule against the live
  engine, deriving the degraded route table from the run's healthy one
  and certifying it deadlock-free as a restriction of that table, whose
  proof is taken once (:func:`repro.verify.certify_table`,
  :func:`repro.verify.recertify`).
* :class:`RecoveryPolicy` — what happens to in-flight casualties:
  :class:`DropAndCount`, :class:`SourceRetransmit` (capped exponential
  backoff), or :class:`AbortRun`.
* :class:`ResilienceStats` — delivered/dropped/retransmitted fractions,
  detour hops vs. the healthy-minimal baseline, per-fault recovery
  latency.
* :func:`fault_sweep` — the paper's qualitative fault-tolerance claim
  as a measurement, routed through the parallel caching executor.
"""

from repro.resilience.controller import FaultController, build_controller
from repro.resilience.recovery import (
    AbortRun,
    DropAndCount,
    RecoveryDecision,
    RecoveryPolicy,
    SourceRetransmit,
    available_recovery_policies,
    make_recovery_policy,
)
from repro.resilience.schedule import (
    FAIL,
    HEAL,
    FaultEvent,
    FaultSchedule,
    channel_from_dict,
    channel_from_label,
    channel_label,
    channel_to_dict,
)
from repro.resilience.stats import ResilienceStats
from repro.resilience.sweep import (
    FaultSweepCell,
    FaultSweepResult,
    fault_sweep,
    render_fault_table,
)

__all__ = [
    "FAIL",
    "HEAL",
    "AbortRun",
    "DropAndCount",
    "FaultController",
    "FaultEvent",
    "FaultSchedule",
    "FaultSweepCell",
    "FaultSweepResult",
    "RecoveryDecision",
    "RecoveryPolicy",
    "ResilienceStats",
    "SourceRetransmit",
    "available_recovery_policies",
    "build_controller",
    "channel_from_dict",
    "channel_from_label",
    "channel_label",
    "channel_to_dict",
    "fault_sweep",
    "make_recovery_policy",
    "render_fault_table",
]
