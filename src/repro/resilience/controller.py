"""The runtime fault controller the engine consults each cycle.

A :class:`FaultController` replays a
:class:`~repro.resilience.schedule.FaultSchedule` against a live
simulation.  The engine owns the clock and the packets; the controller
owns the fault state:

* which channels are currently failed (and hence the degraded route
  table the engine must route on),
* the recovery bookkeeping — per-message retransmission attempts and the
  retry heap of messages waiting out their backoff,
* the :class:`~repro.resilience.stats.ResilienceStats` ledger.

The contract with the engine is deliberately small: ``bind`` once at
construction, then per cycle (only when ``next_wake`` has arrived)
``advance`` + ``pop_retries``; ``casualty`` for every packet torn out of
the network, ``on_delivered`` for every completed one, and ``finish``
when the clock stops.  ``next_wake`` makes the whole subsystem free when
idle: with an empty schedule and no pending retries it stays at
infinity and the engine's hot path never enters the fault code.

A fault degrades the table, not the algorithm: :func:`degrade` reads
every degraded table off the run's healthy one, by the reach rule for a
nonminimal turn table and by dropping the failed ids otherwise, and no
routing object is built per event.  Unless the controller was built with
``recertify=False`` (the CLI's ``--no-recertify`` escape hatch), the
degraded table is certified before the run proceeds: the healthy table
is proved deadlock-free once (its numbering is kept on it, so every run
sharing the table reuses it), and each degraded table is checked to be a
restriction of it, which that numbering certifies.  The engine then
adopts the very table that was checked.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.resilience.recovery import (
    DROP,
    RETRY,
    DropAndCount,
    RecoveryDecision,
    RecoveryPolicy,
    make_recovery_policy,
)
from repro.resilience.schedule import FAIL, FaultEvent, FaultSchedule
from repro.resilience.stats import ResilienceStats
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import CompiledRoutes
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.executor import ResilienceSpec
    from repro.sim.config import SimulationConfig
    from repro.sim.packet import Packet

__all__ = ["FaultController", "build_controller", "degrade"]

_INF = float("inf")

#: A retry-heap entry: (ready cycle, tie-break seq, src, dest, size,
#: original create_time).  The engine re-enqueues the last four fields
#: as a source-queue message, so a retransmitted message keeps its
#: original creation time (end-to-end latency includes the recovery).
RetryEntry = Tuple[int, int, NodeId, NodeId, int, float]

#: A message identity stable across retransmissions.
MessageKey = Tuple[NodeId, NodeId, float]


def degrade(healthy: CompiledRoutes, failed: FrozenSet[Channel]) -> CompiledRoutes:
    """The table a run routes on while ``failed`` are dead.

    Every degraded decision is the healthy one with some ids removed, in
    the same order (:meth:`CompiledRoutes.restricted
    <repro.sim.ids.CompiledRoutes.restricted>`); which ids, per
    destination, follows from the healthy table alone:

    * a nonminimal :class:`~repro.routing.turn_table.TurnRestrictionRouting`
      takes the reach rule (:meth:`CompiledRoutes.reach_restricted
      <repro.sim.ids.CompiledRoutes.reach_restricted>`): the failed ids
      go, then every id whose holder can no longer reach the
      destination, so it routes around the faults;
    * every other routing drops the failed ids.  A minimal algorithm
      cannot detour, and the other nonminimal routers (torus, hex, oct,
      p-cube) are not turn tables.  A filtered relation is a subgraph of
      the certified healthy one.

    The static analyses take the reach rule for every routing
    (:mod:`repro.analysis.fault_tolerance`).  On a minimal turn table it
    would also drop the hops into dead ends, which changes what a faulted
    run of one does, so a run still filters there.
    """
    index = healthy.index
    routing = healthy.routing
    ids = frozenset(index.cid[channel] for channel in failed)
    if isinstance(routing, TurnRestrictionRouting) and not routing.minimal:
        return CompiledRoutes.reach_restricted(healthy, ids)
    return CompiledRoutes.restricted(healthy, [ids] * index.num_nodes)


class FaultController:
    """Replays a fault schedule and manages recovery for one run.

    Args:
        schedule: the fail/heal events to replay.
        policy: the recovery policy for casualties; drop-and-count when
            omitted.
        recertify: certify every degraded configuration deadlock-free
            before the run proceeds (raises
            :class:`~repro.verify.suite.CertificationError` when the
            healthy relation it restricts has a dependency cycle).

    Attributes:
        stats: the run's :class:`ResilienceStats` ledger.
        failed: the currently failed channels.
        current_compiled: the healthy table restricted to ``failed`` by
            :func:`degrade` — the table the last check certified and the
            engine adopts; ``None`` while no channel is failed.
        recertify_s: host seconds spent certifying: the healthy table's
            proof, when this run was the one to take it, plus every
            degraded table's restriction check (timing metadata, never
            part of the ledger).
        degrade_s: host seconds spent deriving degraded tables
            (:func:`degrade`, every fault event); timing metadata like
            ``recertify_s``.
        next_event_cycle: cycle of the next unapplied schedule event.
        next_wake: earliest cycle at which the controller has any work
            (schedule event or due retry); ``inf`` when idle, which lets
            the engine skip the fault hook entirely.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: Optional[RecoveryPolicy] = None,
        *,
        recertify: bool = True,
    ):
        self.schedule = schedule
        self.policy: RecoveryPolicy = policy if policy is not None else DropAndCount()
        self.recertify_enabled = recertify
        self.stats = ResilienceStats()
        self.base_topology: Optional[Topology] = None
        self.current_compiled: Optional[CompiledRoutes] = None
        self.recertify_s = 0.0
        self.degrade_s = 0.0
        self._healthy: Optional[CompiledRoutes] = None
        self.failed: FrozenSet[Channel] = frozenset()
        self.next_event_cycle: float = _INF
        self.next_wake: float = _INF
        self._cursor = 0
        self._retry_heap: List[RetryEntry] = []
        self._attempts: Dict[MessageKey, int] = {}
        self._seq = 0

    # -- engine lifecycle ----------------------------------------------

    def bind(
        self,
        routing: RoutingAlgorithm,
        topology: Topology,
        compiled: Optional[CompiledRoutes] = None,
    ) -> None:
        """Attach to one run; called once by the engine's constructor.

        Validates the schedule against the run's topology and resets all
        per-run state, so one controller instance serves one run.
        ``compiled`` is the run's healthy table (a private one for
        ``routing`` when omitted): every degraded table is derived from
        it.
        """
        self.schedule.validate_for(topology)
        self.base_topology = topology
        self.current_compiled = None
        self.recertify_s = 0.0
        self.degrade_s = 0.0
        self._healthy = compiled if compiled is not None else CompiledRoutes(routing)
        self.failed = frozenset()
        self.stats = ResilienceStats()
        self._cursor = 0
        self._retry_heap = []
        self._attempts = {}
        self._seq = 0
        events = self.schedule.events
        self.next_event_cycle = events[0].cycle if events else _INF
        self.next_wake = self.next_event_cycle

    def advance(self, cycle: int) -> List[FaultEvent]:
        """Apply every schedule event due at or before ``cycle``.

        Returns the applied events (empty when none were due).  When any
        event fired, the degraded table is derived and — unless disabled
        — certified deadlock-free before it is adopted.
        """
        events = self.schedule.events
        cursor = self._cursor
        applied: List[FaultEvent] = []
        failed = set(self.failed)
        while cursor < len(events) and events[cursor].cycle <= cycle:
            event = events[cursor]
            cursor += 1
            if event.kind == FAIL:
                failed.add(event.channel)
                self.stats.on_fault()
            else:
                failed.discard(event.channel)
                self.stats.on_heal()
            applied.append(event)
        self._cursor = cursor
        self.next_event_cycle = (
            events[cursor].cycle if cursor < len(events) else _INF
        )
        if applied:
            self.failed = frozenset(failed)
            self.current_compiled = None  # freed before the next is built
            if self.failed:
                self.current_compiled = self._derive()
        self._update_wake()
        return applied

    def _derive(self) -> CompiledRoutes:
        healthy = self._healthy
        assert healthy is not None and self.base_topology is not None
        if not self.recertify_enabled:
            return self._degrade(healthy)
        # Imported lazily: repro.verify pulls in the whole prover stack,
        # which a no-fault (or --no-recertify) run never needs.
        from repro.verify import certify_table, recertify

        # The healthy proof first: it takes the closure degrade reads.
        started = perf_counter()
        certify_table(self.base_topology, healthy)
        spent = perf_counter() - started
        derived = self._degrade(healthy)
        started = perf_counter()
        recertify(derived)
        self.recertify_s += spent + perf_counter() - started
        self.stats.on_recertified()
        return derived

    def _degrade(self, healthy: CompiledRoutes) -> CompiledRoutes:
        started = perf_counter()
        derived = degrade(healthy, self.failed)
        self.degrade_s += perf_counter() - started
        return derived

    # -- recovery ------------------------------------------------------

    @property
    def retries_pending(self) -> bool:
        """Whether any retransmission is still waiting out its backoff."""
        return bool(self._retry_heap)

    def pop_retries(self, cycle: int) -> List[RetryEntry]:
        """The retransmissions whose backoff expires at or before ``cycle``.

        The engine re-enqueues each as a fresh source-queue message.
        """
        heap = self._retry_heap
        if not heap or heap[0][0] > cycle:
            return []
        ready: List[RetryEntry] = []
        while heap and heap[0][0] <= cycle:
            ready.append(heappop(heap))
        self._update_wake()
        return ready

    def casualty(self, packet: "Packet", cycle: int) -> RecoveryDecision:
        """Decide the fate of a packet torn out of the network.

        Called by the engine for every packet that held a failed channel
        or whose header found no route on the degraded topology.  The
        engine executes the returned decision; retransmissions are
        queued here and surface later via :meth:`pop_retries`.
        """
        key: MessageKey = (packet.src, packet.dest, packet.create_time)
        self.stats.on_casualty(key, cycle)
        attempt = self._attempts.get(key, 0)
        decision = self.policy.decide(attempt)
        if decision.action == RETRY:
            self._attempts[key] = attempt + 1
            self._seq += 1
            heappush(
                self._retry_heap,
                (
                    cycle + max(1, decision.delay),
                    self._seq,
                    packet.src,
                    packet.dest,
                    packet.size,
                    packet.create_time,
                ),
            )
            self.stats.on_retransmit()
            self._update_wake()
        elif decision.action == DROP:
            self._attempts.pop(key, None)
            self.stats.on_drop(key, cycle)
        else:
            self.stats.aborted = True
        return decision

    def on_delivered(self, packet: "Packet", cycle: int) -> None:
        """Account a fully consumed packet (detour hops, recovery latency)."""
        key: MessageKey = (packet.src, packet.dest, packet.create_time)
        self._attempts.pop(key, None)
        base = self.base_topology
        assert base is not None
        detour = packet.hops - base.distance(packet.src, packet.dest)
        self.stats.on_delivered(key, cycle, detour)

    def finish(self, created: int, cycle: int) -> None:
        """Seal the ledger when the engine's clock stops."""
        self.stats.finalize(created, cycle)

    def _update_wake(self) -> None:
        wake = self.next_event_cycle
        heap = self._retry_heap
        if heap and heap[0][0] < wake:
            wake = heap[0][0]
        self.next_wake = wake

    def __repr__(self) -> str:
        return (
            f"FaultController({self.schedule!r}, policy={self.policy.name}, "
            f"failed={len(self.failed)}, recertify={self.recertify_enabled})"
        )


def build_controller(
    topology: Topology,
    spec: "ResilienceSpec",
    config: "SimulationConfig",
) -> FaultController:
    """Construct the controller a :class:`ResilienceSpec` describes.

    The executor's bridge from declarative spec to live controller: the
    fault window defaults to the run's measurement window, and the
    schedule is seed-derived from the spec.  Nothing here depends on the
    routing, so every algorithm of a sweep faces the same faults; how
    the routing degrades is read off the run's healthy table by
    :func:`degrade`.

    Args:
        topology: the healthy topology of the run.
        spec: the declarative description (fault count/seed, policy,
            window, recertification switch).
        config: the run's simulation config (supplies the default fault
            window).
    """
    window = spec.window
    if window is None:
        window = (
            config.warmup_cycles,
            config.warmup_cycles + config.measure_cycles,
        )
    schedule = FaultSchedule.random(
        topology,
        spec.fault_count,
        seed=spec.fault_seed,
        window=window,
        heal_after=spec.heal_after,
        require_connected=spec.require_connected,
    )
    if spec.policy == "retransmit":
        policy = make_recovery_policy(
            "retransmit",
            base_delay=spec.retransmit_base_delay,
            delay_cap=spec.retransmit_delay_cap,
            max_attempts=spec.retransmit_max_attempts,
        )
    else:
        policy = make_recovery_policy(spec.policy)
    return FaultController(schedule, policy, recertify=spec.recertify)
