"""Resilience accounting, kept apart from :class:`SimulationResult`.

The engine's :class:`~repro.sim.stats.SimulationResult` is digest-pinned
by the golden determinism suite (its field set must not grow), so every
fault-run metric lives here instead: delivered/dropped/retransmitted
fractions, detour hops against the healthy-minimal baseline, and
per-casualty recovery latency.  A :class:`ResilienceStats` is owned by
the run's :class:`~repro.resilience.controller.FaultController` and
serializes to a JSON-ready dict via :meth:`ResilienceStats.summary`,
which is what the executor caches next to the simulation result.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["ResilienceStats"]

#: A message identity stable across retransmissions: the source queue
#: re-enqueues the same (src, dest, create_time) triple, so casualties
#: and the eventual delivery of the same logical message correlate.
MessageKey = Tuple[tuple, tuple, float]


class ResilienceStats:
    """Counters and samples for one fault-injected run.

    Attributes:
        faults_applied, heals_applied: schedule events replayed.
        recertifications: degraded configurations certified safe.
        casualties: packets torn out of the network (all causes).
        dropped: messages permanently lost.
        retransmissions: source-retransmit re-enqueues.
        delivered: messages fully consumed at their destination.
        delivered_after_recovery: deliveries of messages that had been a
            casualty at least once.
        detoured_packets, detour_hops_total: deliveries that took more
            hops than the healthy topology's minimal path, and the total
            excess.
        aborted: an :class:`~repro.resilience.recovery.AbortRun` policy
            stopped the run.
        recovery_latency_cycles: per recovered message, cycles from its
            first casualty to its final delivery.
    """

    def __init__(self) -> None:
        self.faults_applied = 0
        self.heals_applied = 0
        self.recertifications = 0
        self.casualties = 0
        self.dropped = 0
        self.retransmissions = 0
        self.delivered = 0
        self.delivered_after_recovery = 0
        self.detoured_packets = 0
        self.detour_hops_total = 0
        self.aborted = False
        self.created = 0
        self.unresolved = 0
        self.end_cycle = 0
        self.recovery_latency_cycles: List[int] = []
        self._pending_recovery: Dict[MessageKey, int] = {}

    # -- event hooks (called by the controller) ------------------------

    def on_fault(self) -> None:
        self.faults_applied += 1

    def on_heal(self) -> None:
        self.heals_applied += 1

    def on_recertified(self) -> None:
        self.recertifications += 1

    def on_casualty(self, key: MessageKey, cycle: int) -> None:
        """A packet was torn out of the network at ``cycle``."""
        self.casualties += 1
        self._pending_recovery.setdefault(key, cycle)

    def on_drop(self, key: MessageKey, cycle: int) -> None:
        """The casualty was discarded for good."""
        self.dropped += 1
        self._pending_recovery.pop(key, None)

    def on_retransmit(self) -> None:
        self.retransmissions += 1

    def on_delivered(self, key: MessageKey, cycle: int, detour_hops: int) -> None:
        """A message was fully consumed; ``detour_hops`` is its excess
        over the healthy topology's minimal hop count."""
        self.delivered += 1
        if detour_hops > 0:
            self.detoured_packets += 1
            self.detour_hops_total += detour_hops
        first_loss = self._pending_recovery.pop(key, None)
        if first_loss is not None:
            self.delivered_after_recovery += 1
            self.recovery_latency_cycles.append(cycle - first_loss)

    def finalize(self, created: int, end_cycle: int) -> None:
        """Seal the run: record totals and casualties never resolved."""
        self.created = created
        self.end_cycle = end_cycle
        self.unresolved = len(self._pending_recovery)
        self._pending_recovery.clear()

    # -- derived metrics ----------------------------------------------

    @property
    def delivered_fraction(self) -> float:
        """Messages delivered over messages created (1.0 when idle)."""
        return self.delivered / self.created if self.created else 1.0

    @property
    def dropped_fraction(self) -> float:
        """Messages permanently lost over messages created."""
        return self.dropped / self.created if self.created else 0.0

    @property
    def avg_detour_hops(self) -> float:
        """Mean excess hops per delivered message (0.0 when none)."""
        return self.detour_hops_total / self.delivered if self.delivered else 0.0

    @property
    def avg_recovery_latency(self) -> float:
        """Mean first-loss-to-delivery latency of recovered messages."""
        samples = self.recovery_latency_cycles
        return sum(samples) / len(samples) if samples else 0.0

    def summary(self) -> dict:
        """A JSON-ready digest of the run's resilience behavior."""
        samples = self.recovery_latency_cycles
        return {
            "faults_applied": self.faults_applied,
            "heals_applied": self.heals_applied,
            "recertifications": self.recertifications,
            "created": self.created,
            "delivered": self.delivered,
            "delivered_fraction": self.delivered_fraction,
            "dropped": self.dropped,
            "dropped_fraction": self.dropped_fraction,
            "casualties": self.casualties,
            "retransmissions": self.retransmissions,
            "delivered_after_recovery": self.delivered_after_recovery,
            "unresolved": self.unresolved,
            "detoured_packets": self.detoured_packets,
            "detour_hops_total": self.detour_hops_total,
            "avg_detour_hops": self.avg_detour_hops,
            "recovery_latency_avg": self.avg_recovery_latency,
            "recovery_latency_max": max(samples) if samples else 0,
            "recovery_latency_samples": len(samples),
            "aborted": self.aborted,
            "end_cycle": self.end_cycle,
        }

    def __repr__(self) -> str:
        return (
            f"ResilienceStats(delivered={self.delivered}, "
            f"dropped={self.dropped}, retransmissions={self.retransmissions}, "
            f"faults={self.faults_applied})"
        )
