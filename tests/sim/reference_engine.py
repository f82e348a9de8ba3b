"""The object-graph reference engine: the differential oracle.

:class:`ReferenceSimulator` is an independent implementation of the
engine's clock and phases — the cycle loop, injection, allocation, both
movers, release, finish, fault handling and recovery — over one
:class:`ChannelState` object per channel, with every routing decision
asked live of the active routing algorithm (no table, no ids).  The
phases are the engine this repository shipped before the hot phases
moved onto dense integer ids (:mod:`repro.sim.engine`), moved here
verbatim; the clock (:meth:`ReferenceSimulator.run`) is a plain loop
written here: every phase is called on every executed cycle and every
active packet is offered a movement pass on each of them, so none of
the production loop's phase-dispatch guards, stalled-worm skips or
cruise accounting is shared — a streaming worm costs the oracle one
mover call per cycle, which is the point.  Idle stretches are still
skipped (``cycles_executed`` is part of the obs summary, so the set of
executed cycles must match the production engine's), but by the
predicate and clamps written out in :meth:`ReferenceSimulator._idle_jump`.
A bound collector's channel heatmap is independent too: the oracle
walks every network channel on every sampled cycle and adds its owner
and fill to the collector's accumulators, where the production engine
reports grant, fill-change and release events.

Message generation is the oracle's own as well: its ``_generate`` polls
every source, in source order, on every executed cycle, where the
production engine keeps an arrival heap and polls only the sources it
pops; ``_idle_jump`` reads the next arrival straight off the
sources; and ``_result`` assembles the result here.  Still inherited
from :class:`~repro.sim.engine.WormholeSimulator`: the constructor's
workload set-up (the seeded sources, source queues and preloads).

Nothing under ``src/`` imports it.  The property suites
(``tests/property/test_property_cores.py``) run it beside the production
engine on drawn configurations, fault schedules and collectors and
require equal results, traces, ledgers and obs summaries; the committed
golden digests, which this engine produced, stay the bit-identity
anchor (``tests/sim/test_determinism.py`` holds it to them too).
"""

from __future__ import annotations

from math import ceil
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import (
    RoutingError,
    WormholeSimulator,
    _arrival_key,
    _merge_waiters,
    _pid_key,
)
from repro.sim.packet import Packet
from repro.sim.stats import SimulationResult, StatsCollector, percentile
from repro.topology.channels import Channel, NodeId

from tests.sim.degraded import degraded_routing

__all__ = ["ChannelState", "NETWORK", "INJECTION", "EJECTION",
           "ReferenceSimulator"]

#: Channel kinds.
NETWORK = "network"
INJECTION = "injection"
EJECTION = "ejection"


class ChannelState:
    """Run-time state of one channel: its buffer fill and its owner.

    Attributes:
        kind: ``NETWORK``, ``INJECTION``, or ``EJECTION``.
        channel: the topology channel (``None`` for injection/ejection).
        node: for injection/ejection channels, the node they serve.
        capacity: buffer depth in flits (the paper uses 1).
        count: flits currently buffered.
        owner: packet holding the channel, or ``None`` if free.
        wake: ``(packet, park_token)`` entries of parked packets to wake
            when this channel is released (engine-managed; entries whose
            token is stale are ignored).
        dest_node: the node a flit is at after crossing this channel,
            precomputed for the routing hot path.
        rank: the output-selection sort key of this channel under a pure
            ranking policy (engine-assigned; ``None`` otherwise).
    """

    __slots__ = ("kind", "channel", "node", "capacity", "count", "owner",
                 "wake", "dest_node", "rank")

    def __init__(
        self,
        kind: str,
        capacity: int,
        channel: Optional[Channel] = None,
        node: Optional[NodeId] = None,
    ):
        if capacity < 1:
            raise ValueError(f"buffer capacity must be at least 1, got {capacity}")
        if kind == NETWORK and channel is None:
            raise ValueError("network channel states need a topology channel")
        if kind in (INJECTION, EJECTION) and node is None:
            raise ValueError(f"{kind} channel states need a node")
        self.kind = kind
        self.channel = channel
        self.node = node
        self.capacity = capacity
        self.count = 0
        self.owner: Optional[Packet] = None
        self.wake: list = []
        self.dest_node: NodeId = channel.dst if kind == NETWORK else node  # type: ignore[union-attr,assignment]
        self.rank: Optional[tuple] = None

    @property
    def free_space(self) -> int:
        """Free flit slots in the buffer."""
        return self.capacity - self.count

    @property
    def is_free(self) -> bool:
        """Whether the channel can be allocated to a new packet."""
        return self.owner is None

    def destination_node(self) -> NodeId:
        """The node a flit is at after crossing this channel."""
        return self.dest_node

    def __repr__(self) -> str:
        where = self.channel if self.kind == NETWORK else self.node
        owner = f" owner=#{self.owner.pid}" if self.owner else ""
        return f"ChannelState({self.kind} {where}, {self.count}/{self.capacity}{owner})"


_rank_of = attrgetter("rank")


class ReferenceSimulator(WormholeSimulator):
    """The wormhole engine on per-channel state objects (see module doc)."""

    def __init__(self, routing, workload, config=None, preload=None,
                 trace=None, resilience=None, obs=None):
        super().__init__(routing, workload, config, preload=preload,
                         trace=trace, resilience=resilience, obs=obs)
        # What headers route against, live: rebound to the definition of
        # the controller's degraded table on a fault, back to ``routing``
        # on full heal.
        self._active_routing = routing
        depth = self.config.buffer_depth
        self._net_states: Dict[Channel, ChannelState] = {
            ch: ChannelState(NETWORK, depth, channel=ch)
            for ch in self.topology.channels()
        }
        self._inj_states: Dict[NodeId, ChannelState] = {}
        self._ej_states: Dict[NodeId, ChannelState] = {}
        for node in self.topology.nodes():
            self._inj_states[node] = ChannelState(INJECTION, depth, node=node)
            self._ej_states[node] = ChannelState(EJECTION, depth, node=node)
        self._node_index: Dict[NodeId, int] = {
            source.node: index for index, source in enumerate(self._sources)
        }
        self._inj_list: List[ChannelState] = [
            self._inj_states[source.node] for source in self._sources
        ]
        # Pure-ranking output policies (e.g. xy): each network channel's
        # sort key is precomputed on its state, so a multi-candidate
        # grant is a min() over the free list instead of a dict build
        # plus a select() call.
        ranking = getattr(self.config.output_policy, "ranking", None)
        if ranking is not None:
            for ch, state in self._net_states.items():
                state.rank = ranking(ch)
        self._rank_grant = ranking is not None

    # ------------------------------------------------------------------
    # The clock

    def run(self) -> SimulationResult:
        """The textbook clock: every phase, every executed cycle."""
        config = self.config
        warmup = config.warmup_cycles
        window_end = warmup + config.measure_cycles
        total = config.total_cycles
        stats = StatsCollector(warmup, window_end)
        self._stats = stats
        ctrl = self._resilience
        move = self._move1 if self._bitocc else self._move
        cycle = 0
        while cycle < total:
            self.cycle = cycle
            self._context.cycle = cycle
            self.cycles_executed += 1
            self._in_window = warmup <= cycle < window_end
            if cycle == warmup:
                stats.queue_len_at_window_start = self._queued()
            if cycle == window_end:
                stats.queue_len_at_window_end = self._queued()
            if ctrl is not None and ctrl.next_wake <= cycle:
                self._resilience_tick(ctrl)
            self._generate(stats)
            self._start_packets()
            self._allocate()
            # An AbortRun casualty stops the run before any flit moves.
            stop = ctrl is not None and self._res_abort
            if not stop:
                self._movement(move, stats)
                drained = (
                    config.max_packets is not None
                    and self._messages_created >= config.max_packets
                    and not self._active
                    and not any(self._queues)
                    and (ctrl is None or not ctrl.retries_pending)
                )
                stop = self._deadlocked or drained
            if self._obs is not None:
                self._obs.on_cycle_end(cycle, self)
                spec = self._obs.spec
                if spec.channels and cycle % spec.sample_every == 0:
                    self._sample_channels(self._obs)
            if stop:
                break
            cycle = self._idle_jump(cycle + 1, warmup, window_end, total)
        if stats.queue_len_at_window_start is None:
            stats.queue_len_at_window_start = self._queued()
        if stats.queue_len_at_window_end is None:
            stats.queue_len_at_window_end = self._queued()
        if ctrl is not None:
            ctrl.finish(self._messages_created, self.cycle)
        if self._obs is not None:
            self._obs.finish(self)
        return self._result(stats)

    def _result(self, stats: StatsCollector) -> SimulationResult:
        """The run's result, read off the statistics collector."""

        def mean(values) -> float:
            return sum(values) / len(values) if values else 0.0

        latencies = stats.latencies_cycles
        return SimulationResult(
            offered_load=self.workload.offered_load,
            cycle_time_usec=self.config.cycle_time_usec,
            num_nodes=self.topology.num_nodes,
            avg_latency_cycles=mean(latencies),
            latency_samples=len(latencies),
            measured_created=stats.measured_created,
            delivered_flits=stats.flits_delivered_in_window,
            offered_flits=stats.offered_flits_in_window,
            measure_cycles=self.config.measure_cycles,
            avg_hops=mean(stats.hops),
            avg_queue_delay_cycles=mean(stats.queue_delays_cycles),
            queue_start=stats.queue_len_at_window_start,
            queue_end=stats.queue_len_at_window_end,
            deadlocked=self._deadlocked,
            total_injected=self._total_injected,
            total_delivered=self._total_delivered,
            p50_latency_cycles=percentile(latencies, 0.50),
            p95_latency_cycles=percentile(latencies, 0.95),
            max_latency_cycles=max(latencies, default=0.0),
            latency_by_size_cycles={
                size: mean(values)
                for size, values in sorted(stats.latencies_by_size.items())
            },
        )

    def _queued(self) -> int:
        """Messages waiting in the source queues, counted directly."""
        return sum(len(queue) for queue in self._queues)

    def _movement(self, move, stats: StatsCollector) -> None:
        """One movement phase: a mover call per active packet, then the
        finishes, then the deadlock watchdog."""
        active = self._active
        if self._multilane:
            self._phy_used.clear()
            if len(active) > 1:
                # Rotate processing order so no packet systematically
                # wins the physical-bandwidth race between lanes.
                active.append(active.pop(0))
        cycle = self.cycle
        any_moved = False
        finished: List[Packet] = []
        for packet in active:
            if move(packet, stats):
                any_moved = True
                if packet.flits_consumed >= packet.size:
                    finished.append(packet)
        for packet in finished:
            self._finish(packet, stats)
            active.remove(packet)
        if any_moved:
            self._last_progress = cycle
        elif active and (
            cycle - self._last_progress >= self.config.deadlock_threshold
        ):
            self._deadlocked = True
            if self.trace is not None:
                self.trace.record(cycle, "deadlock", -1)

    def _idle_jump(self, cycle: int, warmup: int, window_end: int,
                   total: int) -> int:
        """The next cycle to execute, given that ``cycle`` is next on
        the clock.

        With no packet in the network and no message queued, nothing
        happens until the next arrival, so the clock may jump to the
        earliest of: that arrival (or the last cycle when no source will
        ever fire again), the fault controller's next event or due
        retransmission, the next window boundary (its queue sample is
        taken on that exact cycle) and the final cycle.
        """
        if self._active or any(self._queues) or cycle >= total:
            return cycle
        stops = [total - 1]
        next_arrival = min(source.next_arrival for source in self._sources)
        if next_arrival != float("inf"):
            stops.append(ceil(next_arrival))
        if self._resilience is not None:
            # ``inf`` while the controller has nothing pending.
            stops.append(self._resilience.next_wake)
        if cycle <= warmup:
            stops.append(warmup)
        elif cycle <= window_end:
            stops.append(window_end)
        return max(cycle, int(min(stops)))

    # ------------------------------------------------------------------
    # Resource helpers

    def _free_space(self, channel: Channel) -> int:
        return self._net_states[channel].free_space

    @property
    def network_channel_states(self) -> Dict[Channel, ChannelState]:
        """The live per-channel resource table, in topology order."""
        return self._net_states

    @property
    def route_cache(self):
        """The oracle memoizes nothing."""
        return None

    def _sample_channels(self, obs) -> None:
        """Add this cycle's network-channel state straight into the
        collector's accumulators: a walk over every channel on every
        sampled cycle, where the production engine reports grant, fill
        and release events instead."""
        busy = obs._busy
        occupancy = obs._occupancy
        for index, state in enumerate(self._net_states.values()):
            if state.owner is not None:
                busy[index] += 1
            count = state.count
            if count:
                occupancy[index] += count

    def occupancy_snapshot(self) -> int:
        """Total flits currently buffered in the network (for tests)."""
        total = sum(s.count for s in self._net_states.values())
        total += sum(s.count for s in self._inj_states.values())
        total += sum(s.count for s in self._ej_states.values())
        return total

    # ------------------------------------------------------------------
    # Phase 0: message generation and injection-channel allocation

    def _generate(self, stats: StatsCollector) -> None:
        """Poll every source, in source order; stop creating messages at
        the ``max_packets`` cut-off, leaving the remaining sources
        untouched this cycle."""
        cap = self.config.max_packets
        for index, source in enumerate(self._sources):
            for dest, size, create_time in source.poll(self.cycle):
                if cap is not None and self._messages_created >= cap:
                    return
                self._messages_created += 1
                self._queues[index].append((dest, size, create_time))
                self._queued_total += 1
                self._inj_candidates.add(index)
                stats.record_created(create_time, size)

    def _start_packets(self) -> None:
        # Event-driven: only flagged sources are visited, in source-index
        # order so pids are assigned exactly as the reference full scan
        # assigned them.  A source that cannot start a packet right now
        # is dropped from the candidate set — the event that changes
        # that (a new message, or its injection channel being released)
        # re-flags it.
        pending = self._inj_candidates
        if not pending:
            return
        cycle = self.cycle
        trace = self.trace
        sources = self._sources
        queues = self._queues
        inj_list = self._inj_list
        active = self._active
        for index in sorted(pending):
            queue = queues[index]
            if not queue:
                continue
            inj = inj_list[index]
            if inj.owner is not None:
                continue
            dest, size, create_time = queue.popleft()
            self._queued_total -= 1
            source = sources[index]
            packet = Packet(self._next_pid, source.node, dest, size, create_time)
            self._next_pid += 1
            inj.owner = packet
            packet.path.append(inj)
            packet.occupancy.append(0)
            active.append(packet)
            self._total_injected += 1
            self._last_progress = cycle
            if trace is not None:
                trace.record(cycle, "injected", packet.pid, (source.node, dest))
        pending.clear()

    # ------------------------------------------------------------------
    # Phase 1: routing and channel allocation

    def _candidates_for(self, packet: Packet) -> Tuple[ChannelState, ...]:
        front = packet.path[-1]
        node = front.dest_node
        if node == packet.dest:
            return (self._ej_states[node],)
        in_channel = front.channel  # None for the injection channel
        states = tuple(
            self._net_states[ch]
            for ch in self._active_routing.route(in_channel, node, packet.dest)
        )
        if not states and self._strict_routes:
            raise RoutingError(
                f"{self.routing.name} offered no route for {packet!r} at {node} "
                f"(arrived via {in_channel})"
            )
        # Empty with a fault controller bound: the degraded topology cut
        # the header off; _allocate hands the packet to recovery.
        return states

    def _allocate(self) -> None:
        # The waiter list stays incrementally ordered for stateless
        # input policies: headers that arrived since the last pass all
        # share the current arrival cycle, which (for a policy whose
        # priority is strictly increasing in it, e.g. FCFS) sorts them
        # after every existing waiter — so a pid-sort of the newcomers
        # appended at the tail reproduces the reference full sort by
        # (*priority, pid) without re-sorting the whole list each cycle.
        waiters = self._waiters
        policy = self.config.input_policy
        new = self._new_waiters
        park = self._park_enabled
        woken = self._woken
        obs = self._obs
        if woken:
            # Woken (previously parked) packets arrived at their routers
            # strictly before this cycle's new headers, so sorted-woken +
            # sorted-new is itself (waiting_since, pid)-ordered; the
            # existing waiters (routing-delay holdovers) interleave with
            # the woken ones, hence the linear merge.
            if len(woken) > 1:
                woken.sort(key=_arrival_key)
            if new:
                if len(new) > 1:
                    new.sort(key=_pid_key)
                woken.extend(new)
                new.clear()
            if waiters:
                waiters = _merge_waiters(waiters, woken)
            else:
                waiters = list(woken)
            self._waiters = waiters
            woken.clear()
        elif new:
            if park and len(new) > 1:
                new.sort(key=_pid_key)
            waiters.extend(new)
            new.clear()
        if not waiters:
            return
        context = self._context
        delay = self.config.routing_delay_cycles
        cycle = self.cycle
        if policy.stateless:
            order = waiters
        else:
            order = sorted(
                waiters,
                key=lambda p: (*policy.priority(p.waiting_since, context), p.pid),
            )
        trace = self.trace
        output_policy = self.config.output_policy
        rank_grant = self._rank_grant
        candidates_for = self._candidates_for
        still_waiting: List[Packet] = []
        append_waiting = still_waiting.append
        for packet in order:
            if cycle - packet.waiting_since < delay:
                # The router is still computing this header's route
                # (routing_delay_cycles > 1 models slower selection logic).
                append_waiting(packet)
                continue
            candidates = packet.pending_candidates
            if candidates is None:
                candidates = candidates_for(packet)
                if not candidates:
                    # Only reachable with a fault controller bound
                    # (_candidates_for raises otherwise): the degraded
                    # topology stranded this header.
                    self._recover(packet, in_allocation=True)
                    continue
                packet.pending_candidates = candidates
            if len(candidates) == 1:
                # Single candidate (ejection, or a one-way route): no
                # free-list build, no selection.
                chosen = candidates[0]
                if chosen.owner is not None:
                    if park:
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        chosen.wake.append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
            else:
                free = [s for s in candidates if s.owner is None]
                if not free:
                    if park:
                        # Nothing can free a candidate except a release
                        # in the movement phase, which wakes the packet —
                        # so leaving the waiter list loses no grant
                        # opportunity.
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        for s in candidates:
                            s.wake.append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
                # Multi-candidate routes never include the ejection
                # channel (_candidates_for returns it alone), so no
                # EJECTION short-circuit is needed here.
                if len(free) == 1:
                    chosen = free[0]
                elif rank_grant:
                    # The output policy is a pure ranking: min over the
                    # free states by their precomputed key, ties to the
                    # earliest candidate — exactly the reference min
                    # over the candidate channels.
                    chosen = min(free, key=_rank_of)
                else:
                    by_channel = {s.channel: s for s in free}
                    pick = output_policy.select(list(by_channel), context)
                    chosen = by_channel[pick]
            chosen.owner = packet
            packet.path.append(chosen)
            packet.occupancy.append(0)
            packet.header_present = False
            packet.pending_candidates = None
            packet.stalled = False
            if chosen.kind == EJECTION:
                packet.route_complete = True
            else:
                packet.hops += 1
            self._last_progress = cycle
            if trace is not None:
                if chosen.kind == EJECTION:
                    trace.record(cycle, "eject-granted", packet.pid, chosen.node)
                else:
                    trace.record(cycle, "granted", packet.pid, chosen.channel)
        self._waiters = still_waiting

    # ------------------------------------------------------------------
    # Phase 2: flit movement

    def _move(self, packet: Packet, stats: StatsCollector) -> bool:
        path = packet.path
        occ = packet.occupancy
        cycle = self.cycle
        moves = 0
        # Consume at the destination processor: one flit per cycle off the
        # ejection buffer ("messages that arrive ... are immediately
        # consumed").
        if packet.route_complete and occ[-1] > 0:
            occ[-1] -= 1
            path[-1].count -= 1
            packet.flits_consumed += 1
            if self._in_window:
                stats.flits_delivered_in_window += 1
            moves = 1
        # Advance flits across each held channel, front boundary first, so
        # a slot freed downstream is reusable upstream in the same cycle.
        front_index = len(path) - 1
        multilane = self._multilane
        if multilane:
            phy_used = self._phy_used
        # Walk front to back carrying the downstream state: iteration i's
        # upstream is iteration i-1's downstream, saving one list index
        # per boundary.
        i = front_index
        downstream = path[i]
        while i:
            upstream = path[i - 1]
            below = occ[i - 1]
            if below and downstream.count < downstream.capacity:
                if multilane and downstream.kind == NETWORK:
                    physical = downstream.channel.physical
                    if physical in phy_used:
                        i -= 1
                        downstream = upstream
                        continue
                    phy_used.add(physical)
                occ[i - 1] = below - 1
                upstream.count -= 1
                occ[i] += 1
                downstream.count += 1
                moves += 1
                if (
                    i == front_index
                    and not packet.header_present
                    and not packet.route_complete
                ):
                    self._header_arrived(packet)
            i -= 1
            downstream = upstream
        # Inject the next flit from the source queue into the injection
        # buffer (the packet owns its injection channel until fully
        # injected).
        if packet.remaining_to_inject > 0:
            rear = path[0]
            if rear.count < rear.capacity:
                occ[0] += 1
                rear.count += 1
                packet.remaining_to_inject -= 1
                moves += 1
                if packet.inject_cycle is None:
                    packet.inject_cycle = cycle
                    self._header_arrived(packet)
        # Release channels the tail has fully passed.
        while len(path) > 1 and occ[0] == 0:
            rear = path[0]
            if rear.kind == INJECTION and packet.remaining_to_inject > 0:
                break
            rear.owner = None
            self._released(rear)
            del path[0]
            del occ[0]
        if moves:
            self.flit_moves += moves
            return True
        if not packet.route_complete and not multilane:
            packet.stalled = True
        return False

    def _move1(self, packet: Packet, stats: StatsCollector) -> bool:
        """:meth:`_move` specialized for single-flit buffers, single lane.

        With ``buffer_depth == 1`` (the paper's routers) every occupancy
        is 0 or 1 and — because wormhole ownership is exclusive — a held
        channel's buffer count always equals the owner's occupancy entry,
        so a boundary moves iff the upstream slot is full and the
        downstream slot is empty, and every count update is a constant
        store.  Behaviour is identical to :meth:`_move`.
        """
        path = packet.path
        occ = packet.occupancy
        moves = 0
        if packet.route_complete and occ[-1]:
            occ[-1] = 0
            path[-1].count = 0
            packet.flits_consumed += 1
            if self._in_window:
                stats.flits_delivered_in_window += 1
            moves = 1
        i = len(path) - 1
        front_index = i
        downstream = path[i]
        down_occ = occ[i]
        while i:
            upstream = path[i - 1]
            up_occ = occ[i - 1]
            if up_occ and not down_occ:
                occ[i - 1] = 0
                upstream.count = 0
                occ[i] = 1
                downstream.count = 1
                moves += 1
                if (
                    i == front_index
                    and not packet.header_present
                    and not packet.route_complete
                ):
                    self._header_arrived(packet)
                up_occ = 0
            i -= 1
            downstream = upstream
            down_occ = up_occ
        if packet.remaining_to_inject > 0 and not occ[0]:
            occ[0] = 1
            path[0].count = 1
            packet.remaining_to_inject -= 1
            moves += 1
            if packet.inject_cycle is None:
                packet.inject_cycle = self.cycle
                self._header_arrived(packet)
        while occ[0] == 0 and len(path) > 1:
            rear = path[0]
            if rear.kind == INJECTION and packet.remaining_to_inject > 0:
                break
            rear.owner = None
            self._released(rear)
            del path[0]
            del occ[0]
        if moves:
            self.flit_moves += moves
            return True
        if not packet.route_complete:
            packet.stalled = True
        return False

    def _released(self, state: ChannelState) -> None:
        # An owner release is the only event that can unblock a parked
        # header or let a backlogged source inject, so this hook is the
        # sole feeder of ``_woken`` and (with message creation)
        # ``_inj_candidates``.
        if state.kind == INJECTION:
            self._inj_candidates.add(self._node_index[state.node])
            return
        wake = state.wake
        if wake:
            woken = self._woken
            obs = self._obs
            for entry in wake:
                parked = entry[0]
                if parked.parked and parked.park_token == entry[1]:
                    parked.parked = False
                    woken.append(parked)
                    if obs is not None:
                        obs.wake_events += 1
            wake.clear()

    def _finish(self, packet: Packet, stats: StatsCollector) -> None:
        # Once every flit is consumed the held buffers are empty; just
        # release the channels (normally only the ejection channel remains).
        for state in packet.path:
            state.owner = None
            self._released(state)
        packet.path.clear()
        packet.occupancy.clear()
        self._total_delivered += 1
        if self.trace is not None:
            self.trace.record(self.cycle, "delivered", packet.pid, packet.dest)
        if self._resilience is not None:
            self._resilience.on_delivered(packet, self.cycle)
        if self._obs is not None:
            self._obs.on_packet_delivered(packet, self.cycle)
        stats.record_packet_done(
            packet.create_time, packet.inject_cycle, self.cycle, packet.hops,
            size=packet.size,
        )

    # ------------------------------------------------------------------
    # Runtime fault injection

    def _resilience_tick(self, ctrl) -> None:
        """Apply due fault events and release due retransmissions.

        Runs at the top of a cycle, before generation and allocation, so
        a fault at cycle *c* degrades the topology before any routing
        decision of cycle *c*, and a retransmission whose backoff ends
        at *c* can inject at *c*.  Only called when ``ctrl.next_wake``
        has arrived — a controller with nothing pending costs the hot
        loop a single comparison per cycle.
        """
        cycle = self.cycle
        # 1. Due retransmissions re-enter their source queues as whole
        #    messages, keeping their original creation time.
        for _ready, _seq, src, dest, size, create_time in ctrl.pop_retries(cycle):
            index = self._node_index[src]
            self._queues[index].append((dest, size, create_time))
            self._queued_total += 1
            self._inj_candidates.add(index)
        if ctrl.next_event_cycle > cycle:
            return
        # 2. Apply the due fail/heal events.  ``advance`` derives the
        #    degraded table and (unless disabled) re-certifies it
        #    deadlock-free, raising CertificationError on refutation —
        #    the run must not proceed unsafely.
        events = ctrl.advance(cycle)
        if not events:
            return
        trace = self.trace
        changed: List[Channel] = []
        victims: List[Packet] = []
        for event in events:
            changed.append(event.channel)
            if trace is not None:
                trace.record(cycle, "fault", -1, (event.kind, event.channel))
            if event.kind == "fail":
                owner = self._net_states[event.channel].owner
                if owner is not None and owner not in victims:
                    victims.append(owner)
        # 3. Point allocation at the degraded routing relation.
        self._refresh_routing(ctrl, changed)
        # 4. Flush every routing decision taken against the old
        #    topology: cached candidates are re-resolved, and parked
        #    headers rejoin the waiter list (their candidate sets may
        #    have changed entirely).
        woken = self._woken
        for packet in self._active:
            packet.pending_candidates = None
            if packet.parked:
                packet.parked = False
                woken.append(packet)
        # 5. Packets with flits on a now-dead channel are casualties.
        for packet in victims:
            self._recover(packet)

    def _refresh_routing(self, ctrl, changed: List[Channel]) -> None:
        """Route against the definition of the controller's current table
        from now on, built from ``ctrl.failed`` (every decision is asked
        live, so there is no table to fix)."""
        self._active_routing = (
            degraded_routing(self.routing, ctrl.failed, self.topology)
            if ctrl.failed else self.routing
        )

    def _recover(self, packet: Packet, in_allocation: bool = False) -> None:
        """Tear a casualty out of the network and apply recovery.

        The packet's buffered flits are discarded, every held channel is
        released (waking parked headers and backlogged sources), and the
        controller's policy decides the message's fate: re-enqueue after
        a backoff (``retry``), count it lost (``drop``), or stop the run
        (``abort``).

        Args:
            packet: the casualty (held a failed channel, or its header
                has no route on the degraded topology).
            in_allocation: True when called from inside ``_allocate``'s
                waiter scan — the scan already excludes the packet from
                the rebuilt waiter list, and mutating the list being
                iterated would corrupt it.
        """
        ctrl = self._resilience
        assert ctrl is not None
        cycle = self.cycle
        decision = ctrl.casualty(packet, cycle)
        trace = self.trace
        if trace is not None:
            if decision.action == "retry":
                trace.record(
                    cycle,
                    "retransmitted",
                    packet.pid,
                    (packet.src, packet.dest, decision.delay),
                )
            elif decision.action == "drop":
                trace.record(
                    cycle, "dropped", packet.pid, (packet.src, packet.dest)
                )
        # Discard buffered flits and release the held chain.  Wormhole
        # ownership is exclusive, so each held channel's count includes
        # exactly this packet's occupancy entry.
        path = packet.path
        occupancy = packet.occupancy
        for i, state in enumerate(path):
            state.count -= occupancy[i]
            state.owner = None
            self._released(state)
        path.clear()
        occupancy.clear()
        packet.pending_candidates = None
        packet.parked = False
        packet.park_token += 1  # invalidate stale wake-list entries
        packet.header_present = False
        packet.stalled = True
        try:
            self._active.remove(packet)
        except ValueError:
            pass
        if not in_allocation:
            for waitlist in (self._waiters, self._new_waiters, self._woken):
                try:
                    waitlist.remove(packet)
                except ValueError:
                    pass
        if decision.action == "drop":
            if self._stats is not None:
                self._stats.record_packet_dropped()
        elif decision.action == "abort":
            self._res_abort = True
