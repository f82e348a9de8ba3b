"""The runtime fault controller the engine consults each cycle.

A :class:`FaultController` replays a
:class:`~repro.resilience.schedule.FaultSchedule` against a live
simulation.  The engine owns the clock and the packets; the controller
owns the fault state:

* which channels are currently failed (and hence the degraded
  topology/routing pair the engine must route against),
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

Every degraded routing gets an int-id table on the run's own channel
index, and — unless the controller was built with ``recertify=False``,
the CLI's ``--no-recertify`` escape hatch — that table's closure is
proved deadlock-free before the run proceeds; the engine then adopts the
very table that was proved.

The table is read off the run's healthy table, not compiled by asking
the degraded routing (:meth:`CompiledRoutes.restricted
<repro.sim.ids.CompiledRoutes.restricted>`).  Both degradations this
module builds are restrictions of the healthy relation — each degraded
decision is the healthy one with some ids removed, in the same order:

* *filter* (:class:`DegradedRouting`): by definition, the failed ids;
* *rebuild* (a nonminimal :class:`~repro.routing.turn_table
  .TurnRestrictionRouting` re-made on the degraded topology): the ids
  whose holder can no longer reach the destination.  Its outputs are
  the permitted surviving channels in ``out_channels`` order (which
  :class:`~repro.topology.faults.FaultyTopology` keeps), productive
  first (by the healthy ``minimal_directions``), that still reach the
  destination — and the degraded reach is a subset of the healthy one.

The degraded routing object is still built and stays
``current_routing``: it is the definition the derived table restricts
to, and what a proof names.  Any other factory's routing is compiled
from its ``route`` as before.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
from repro.routing.registry import make_routing
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import CompiledRoutes, mask_ids
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId
from repro.topology.faults import FaultyTopology

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.executor import ResilienceSpec
    from repro.sim.config import SimulationConfig
    from repro.sim.packet import Packet

__all__ = ["DegradedRouting", "FaultController", "build_controller"]

_INF = float("inf")

#: A retry-heap entry: (ready cycle, tie-break seq, src, dest, size,
#: original create_time).  The engine re-enqueues the last four fields
#: as a source-queue message, so a retransmitted message keeps its
#: original creation time (end-to-end latency includes the recovery).
RetryEntry = Tuple[int, int, NodeId, NodeId, int, float]

#: A message identity stable across retransmissions.
MessageKey = Tuple[NodeId, NodeId, float]


class DegradedRouting(RoutingAlgorithm):
    """A routing relation with the failed channels filtered out.

    The fallback when no ``routing_factory`` is supplied: the base
    algorithm's decisions are kept, minus any candidate that is
    currently dead.  A factory-rebuilt algorithm (the default for fault
    sweeps) instead re-derives its tables on the degraded topology and
    can genuinely route *around* faults; this wrapper can only prune,
    which models a router whose configuration cannot be recomputed
    online.

    Attributes:
        degraded_base: the healthy algorithm being filtered.
        failed: the channels filtered from every decision.
    """

    def __init__(
        self,
        base: RoutingAlgorithm,
        failed: FrozenSet[Channel],
        topology: Topology,
    ):
        super().__init__(topology)
        self.degraded_base = base
        self.failed = failed
        self.name = base.name
        self.minimal = base.minimal
        self.cacheable = base.cacheable
        self.uses_in_channel = base.uses_in_channel

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        failed = self.failed
        return tuple(
            channel
            for channel in self.degraded_base.route(in_channel, node, dest)
            if channel not in failed
        )


class FaultController:
    """Replays a fault schedule and manages recovery for one run.

    Args:
        schedule: the fail/heal events to replay.
        policy: the recovery policy for casualties; drop-and-count when
            omitted.
        routing_factory: rebuilds the routing algorithm on a degraded
            topology (e.g. ``lambda t: make_routing(name, t)``), letting
            table-driven algorithms re-derive their reachability around
            the faults.  When ``None``, the healthy algorithm is wrapped
            in :class:`DegradedRouting` (filter-only degradation).
        recertify: re-prove every degraded configuration deadlock-free
            before the run proceeds (raises
            :class:`~repro.verify.suite.CertificationError` otherwise).

    Attributes:
        stats: the run's :class:`ResilienceStats` ledger.
        failed: the currently failed channels.
        current_routing, current_topology: what the engine should route
            against right now (the healthy pair until the first fault).
        current_compiled: ``current_routing``'s table on the run's
            channel index, derived from the healthy table where the
            degradation allows — the table the last proof closed and
            the engine adopts; ``None`` while the healthy routing is
            live.
        recertify_s: host seconds spent proving degraded tables (timing
            metadata, never part of the ledger).
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
        routing_factory: Optional[Callable[[Topology], RoutingAlgorithm]] = None,
        recertify: bool = True,
    ):
        self.schedule = schedule
        self.policy: RecoveryPolicy = policy if policy is not None else DropAndCount()
        self.routing_factory = routing_factory
        self.recertify_enabled = recertify
        self.stats = ResilienceStats()
        self.base_routing: Optional[RoutingAlgorithm] = None
        self.base_topology: Optional[Topology] = None
        self.current_routing: Optional[RoutingAlgorithm] = None
        self.current_topology: Optional[Topology] = None
        self.current_compiled: Optional[CompiledRoutes] = None
        self.recertify_s = 0.0
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
        it, or compiled on its channel index.
        """
        self.schedule.validate_for(topology)
        self.base_routing = routing
        self.base_topology = topology
        self.current_routing = routing
        self.current_topology = topology
        self.current_compiled = None
        self.recertify_s = 0.0
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
        event fired, the degraded topology/routing pair is rebuilt and —
        unless disabled — re-certified deadlock-free before returning.
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
            self._rebuild()
        self._update_wake()
        return applied

    def _rebuild(self) -> None:
        base_topology = self.base_topology
        base_routing = self.base_routing
        assert base_topology is not None and base_routing is not None
        self.current_compiled = None  # freed before the next is built
        if not self.failed:
            self.current_topology = base_topology
            self.current_routing = base_routing
            return
        degraded = FaultyTopology(base_topology, self.failed)
        if self.routing_factory is not None:
            routing = self.routing_factory(degraded)
        else:
            routing = DegradedRouting(base_routing, self.failed, degraded)
        healthy = self._healthy
        assert healthy is not None
        dropped = self._dropped_ids(routing, degraded, healthy)
        if dropped is None:
            compiled = CompiledRoutes(routing, healthy.index)
        else:
            compiled = CompiledRoutes.restricted(healthy, routing, dropped)
        self.current_topology = degraded
        self.current_routing = routing
        self.current_compiled = compiled
        if self.recertify_enabled:
            self._recertify(degraded, compiled)

    @staticmethod
    def _dropped_ids(
        routing: RoutingAlgorithm,
        degraded: FaultyTopology,
        healthy: CompiledRoutes,
    ) -> Optional[List[FrozenSet[int]]]:
        """Per destination index, the ids ``routing``'s decisions drop
        from ``healthy``'s (see the module notes) — or ``None`` when
        ``routing`` is not a restriction of ``healthy.routing`` of a
        kind this controller builds, or ``healthy`` holds no table."""
        if healthy.dense is None and healthy.bykey is None:
            return None
        base = healthy.routing
        index = healthy.index
        if type(routing) is DegradedRouting:
            if routing.degraded_base is not base:
                return None
            failed = frozenset(index.cid[channel] for channel in routing.failed)
            return [failed] * index.num_nodes
        if not (
            type(routing) is TurnRestrictionRouting
            and type(base) is TurnRestrictionRouting
            and not routing.minimal
            and not base.minimal
            and routing.restriction == base.restriction
            and routing.topology is degraded
        ):
            return None
        oracle = base.oracle
        assert oracle is not None
        blocked = 0
        for channel in degraded.failed:
            blocked |= 1 << index.cid[channel]
        return [
            frozenset(mask_ids(oracle.reach_mask(node) & ~oracle.reach_mask(node, blocked)))
            for node in index.nodes
        ]

    def _recertify(self, topology: Topology, compiled: CompiledRoutes) -> None:
        # Imported lazily: repro.verify pulls in the whole prover stack,
        # which a no-fault (or --no-recertify) run never needs.
        from repro.verify import recertify

        started = perf_counter()
        label = f"degraded({len(self.failed)} failed)"
        recertify(topology, compiled.routing, label, compiled.closure())
        self.recertify_s += perf_counter() - started
        self.stats.on_recertified()

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
    routing_name: str,
    spec: "ResilienceSpec",
    config: "SimulationConfig",
) -> FaultController:
    """Construct the controller a :class:`ResilienceSpec` describes.

    The executor's bridge from declarative spec to live controller: the
    fault window defaults to the run's measurement window, the schedule
    is seed-derived from the spec, and nonminimal algorithms are rebuilt
    by registry name on every degraded topology (so their turn tables
    re-derive reachability around the faults) while minimal algorithms
    degrade by candidate filtering — see the inline rationale.

    Args:
        topology: the healthy topology of the run.
        routing_name: registry name used to rebuild routing on degraded
            topologies.
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
    # Minimal algorithms degrade by filtering, not rebuilding.  Several
    # minimal adaptive algorithms (negative-first is the clear case)
    # enforce their turn discipline through candidate *availability*:
    # rebuilt on a degraded topology, a fault that removes every
    # negative-going candidate makes them emit a positive hop with
    # negative hops still owed, and the later positive-to-negative turn
    # breaks the acyclicity proof — the recertifier rightly refuses such
    # configurations.  Filtering the healthy decision (DegradedRouting)
    # keeps the dependency graph a subset of the certified healthy one,
    # and a minimal algorithm cannot detour around faults anyway, so
    # nothing is lost.  Nonminimal turn-table routers keep their (static)
    # turn table under rebuild and gain re-derived reachability — the
    # detours the fault sweep measures.
    probe = make_routing(routing_name, topology)
    routing_factory = (
        None
        if probe.minimal
        else (lambda degraded: make_routing(routing_name, degraded))
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
    return FaultController(
        schedule,
        policy,
        routing_factory=routing_factory,
        recertify=spec.recertify,
    )
