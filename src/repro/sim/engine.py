"""The flit-level wormhole network simulator (Section 6).

One simulator cycle is one flit time: every channel has the same bandwidth
and the routers synchronize to transmit the flits in a packet, exactly the
paper's setup with the asynchronous skew abstracted away.  Each cycle has
two phases:

1. **Allocation** — headers waiting at routers request output channels.
   The routing algorithm supplies the candidates, the input selection
   policy (local FCFS by default) orders competing headers, and the
   output selection policy (xy by default) picks among the free
   candidates.  A granted channel is held by the packet until its tail
   flit leaves it — wormhole flow control.

2. **Movement** — flits advance along each packet's chain of held
   channels, front to back, one flit per channel per cycle; processing
   the chain front-first lets a draining packet move every flit in the
   same cycle, giving full-rate pipelining with single-flit buffers.
   Messages blocked from entering the network wait in unbounded source
   queues; flits reaching the destination's ejection channel are consumed
   immediately.

A watchdog flags deadlock when no flit moves for a configurable number of
cycles while packets are in flight — routing algorithms from the turn
model never trigger it, and the Figure 1/Figure 4 demonstrations do.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.cache import RouteCache
from repro.routing.selection import SelectionContext
from repro.sim.config import SimulationConfig
from repro.sim.packet import Packet
from repro.sim.resources import EJECTION, INJECTION, NETWORK, ChannelState
from repro.sim.stats import SimulationResult, StatsCollector, percentile
from repro.sim.trace import TraceRecorder
from repro.topology.channels import Channel, NodeId
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.obs.metrics import MetricsCollector
    from repro.resilience.controller import FaultController

__all__ = ["WormholeSimulator", "RoutingError"]


class RoutingError(RuntimeError):
    """The routing algorithm offered no candidates for a reachable state."""


#: Expected-message ceiling for the pre-drawn arrival schedule; above
#: it the engine polls sources live instead of materializing the trace.
PRE_DRAW_MESSAGE_LIMIT = 4_000_000


def _arrival_key(packet: Packet) -> Tuple[int, int]:
    return (packet.waiting_since, packet.pid)


def _pid_key(packet: Packet) -> int:
    return packet.pid


_rank_of = attrgetter("rank")


def _merge_waiters(a: List[Packet], b: List[Packet]) -> List[Packet]:
    """Linear merge of two waiter lists sorted by (waiting_since, pid)."""
    merged: List[Packet] = []
    append = merged.append
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        pa = a[i]
        pb = b[j]
        if (pa.waiting_since, pa.pid) <= (pb.waiting_since, pb.pid):
            append(pa)
            i += 1
        else:
            append(pb)
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return merged


class WormholeSimulator:
    """Simulates one workload on one topology with one routing algorithm."""

    #: Which engine core this class implements ("object" is the
    #: reference implementation; see :mod:`repro.sim.flatcore`).
    core = "object"
    #: Why :func:`repro.sim.flatcore.make_simulator` built this core
    #: rather than the flat one; ``None`` on the flat core and on a
    #: simulator constructed directly.
    core_fallback_reason: Optional[str] = None

    def __init__(
        self,
        routing: RoutingAlgorithm,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        preload: Optional[List[Tuple[NodeId, NodeId, int, float]]] = None,
        trace: Optional[TraceRecorder] = None,
        resilience: Optional["FaultController"] = None,
        obs: Optional["MetricsCollector"] = None,
        route_source: Optional[RouteCache] = None,
    ):
        """
        Args:
            routing: the routing algorithm (also supplies the topology).
            workload: message generation (pattern, sizes, rate, seed).
            config: simulator knobs; defaults reproduce Section 6.
            preload: messages queued before the run starts, as
                (source, destination, size, create_time) tuples — handy
                for deterministic unit tests and staged demonstrations
                (combine with ``offered_load=0`` for a closed workload).
            trace: optional :class:`~repro.sim.trace.TraceRecorder`
                capturing packet-level events (grants, deliveries, ...).
            resilience: optional
                :class:`~repro.resilience.controller.FaultController`
                injecting runtime link faults.  With a controller bound,
                an unroutable header is a recoverable casualty rather
                than a :class:`RoutingError`; with an empty schedule the
                fault hook never fires and results are bit-identical to
                a run without a controller.
            obs: optional
                :class:`~repro.obs.metrics.MetricsCollector` sampling
                channel utilization, latency, and throughput during the
                run.  Every hook is read-only and the collector draws
                no numbers from the simulation's RNG streams, so
                enabling it is bit-invisible to results and traces.
            route_source: optional shared *raw*
                :class:`~repro.routing.cache.RouteCache` for the same
                algorithm (see :mod:`repro.analysis.prewarm`).  The
                run's private cache consults it on a miss before
                recomputing a route — routing decisions are pure, so a
                warmed run is bit-identical to a cold one.
        """
        self.topology = routing.topology
        if workload.pattern.topology is not self.topology:
            if workload.pattern.topology.shape != self.topology.shape:
                raise ValueError(
                    "workload and routing algorithm use different topologies"
                )
        self.routing = routing
        self.workload = workload
        self.config = config or SimulationConfig()
        self.trace = trace

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

        self._sources = workload.sources()
        self._queues: List[Deque[Tuple[NodeId, int, float]]] = [
            deque() for _ in self._sources
        ]
        self._context = SelectionContext(
            free_space=self._free_space, rng=random.Random(self.config.seed)
        )
        self._active: List[Packet] = []
        self._waiters: List[Packet] = []
        self._messages_created = 0
        self._preload_count = 0
        if preload:
            index = {src.node: q for src, q in zip(self._sources, self._queues)}
            for src, dest, size, create_time in preload:
                self.topology.validate_node(src)
                self.topology.validate_node(dest)
                if src == dest:
                    raise ValueError(f"preloaded message sends {src} to itself")
                index[src].append((dest, size, create_time))
                self._messages_created += 1
                self._preload_count += 1
        self._next_pid = 0
        self._total_injected = 0
        self._total_delivered = 0
        self._last_progress = 0
        self._deadlocked = False
        self.cycle = 0
        # Virtual channels: lanes share their physical link's bandwidth
        # (one flit per cycle per physical channel, Section 1).  The
        # stall-skipping optimization is disabled when lanes contend,
        # since a packet blocked by the *other* lane's flit can resume
        # without any allocation event.
        self._multilane = any(ch.lane != 0 for ch in self.topology.channels())
        self._phy_used: set = set()
        # Hot-path state.  Routing is memoized when the algorithm is a
        # pure function of (in_channel, node, dest); the cache resolves
        # channels to their ChannelState up front so allocation is a
        # dict lookup away from its candidates.
        self._route_cache: Optional[RouteCache] = (
            RouteCache(
                routing,
                resolve=self._net_states.__getitem__,
                source=route_source,
            )
            if getattr(routing, "cacheable", True)
            else None
        )
        # Event-driven generation: one heap entry per source, keyed by
        # its next arrival time, so a cycle only touches sources that
        # actually release a message.  Silent sources (rate 0) never
        # enter the heap.
        self._arrival_heap: List[Tuple[float, int]] = [
            (source.next_arrival, index)
            for index, source in enumerate(self._sources)
            if source.next_arrival != float("inf")
        ]
        heapify(self._arrival_heap)
        # Pre-drawn arrival schedule.  Each source owns a private RNG
        # stream (Workload.sources seeds one Random per node), so
        # realizing every arrival up to the horizon now draws exactly
        # the values the per-cycle polls would have drawn, in the same
        # per-source order — the clock loop then consumes plain lists
        # with no RNG work.  Discarded arrivals (a pattern declining to
        # emit a destination) are kept as placeholder events so the
        # arrival heap sees identical event times.  Skipped when the
        # expected message volume would make the trace large; the
        # engine then polls sources live, as before.
        self._pre_pairs: Optional[List[List[Tuple[float, Optional[tuple]]]]] = None
        self._pre_pos: List[int] = []
        expected_messages = (
            workload.messages_per_node_per_cycle
            * len(self._sources)
            * self.config.total_cycles
        )
        if expected_messages <= PRE_DRAW_MESSAGE_LIMIT:
            last = self.config.total_cycles - 1
            pairs_per: List[List[Tuple[float, Optional[tuple]]]] = []
            for source in self._sources:
                pairs: List[Tuple[float, Optional[tuple]]] = []
                while source.next_arrival <= last:
                    pairs.append((source.next_arrival, source.pull()))
                pairs_per.append(pairs)
            self._pre_pairs = pairs_per
            self._pre_pos = [0] * len(self._sources)
        # Source-queue total, maintained incrementally (counts preloads).
        self._queued_total = sum(len(q) for q in self._queues)
        # Waiters whose headers arrived since the last allocation pass;
        # merged into the (incrementally ordered) waiter list there.
        self._new_waiters: List[Packet] = []
        # Parking (stateless input policies only): a blocked header
        # leaves the waiter list and registers on each candidate
        # channel's wake list; releasing a channel moves its valid
        # entries to ``_woken``, which the next allocation pass merges
        # back in (waiting_since, pid) order.  A stateful policy such as
        # random selection recomputes priorities — and may draw from the
        # shared RNG — for every waiter every cycle, so parked packets
        # would change its stream; those policies keep the full scan.
        self._park_enabled = self.config.input_policy.stateless
        self._woken: List[Packet] = []
        # Event-driven injection: only sources flagged here can start a
        # packet — flagged when a message is created (queue became
        # non-empty, including preloads) and when their injection channel
        # is released.
        self._node_index: Dict[NodeId, int] = {
            source.node: index for index, source in enumerate(self._sources)
        }
        self._inj_list: List[ChannelState] = [
            self._inj_states[source.node] for source in self._sources
        ]
        self._inj_candidates: set = {
            index for index, queue in enumerate(self._queues) if queue
        }
        #: Flits transferred over the whole run (consumptions, channel
        #: crossings, and injections) — the work metric of ``repro bench``.
        self.flit_moves = 0
        #: Main-loop iterations actually executed; less than the cycles
        #: simulated when the idle fast-forward skips dead time.
        self.cycles_executed = 0
        # Whether the current cycle is inside the measurement window —
        # hoisted out of the per-flit consumption accounting.
        self._in_window = False
        # Pure-ranking output policies (e.g. xy): each network channel's
        # sort key is precomputed on its state, so a multi-candidate
        # grant is a min() over the free list instead of a dict build
        # plus a select() call.
        ranking = getattr(self.config.output_policy, "ranking", None)
        if ranking is not None:
            for ch, state in self._net_states.items():
                state.rank = ranking(ch)
        self._rank_grant = ranking is not None
        # Runtime fault injection.  ``_active_routing`` is what headers
        # actually route against — rebound to a degraded algorithm when
        # the controller applies a fault, back to ``routing`` when every
        # channel heals.  ``_strict_routes`` preserves the historical
        # contract (empty candidate sets raise) for fault-free runs.
        self._resilience = resilience
        self._strict_routes = resilience is None
        self._active_routing: RoutingAlgorithm = routing
        self._res_abort = False
        self._stats: Optional[StatsCollector] = None
        if resilience is not None:
            resilience.bind(routing, self.topology)
        # Observability: same cheap-hook contract as the fault
        # controller — a run without a collector pays one ``is not
        # None`` test per hook site and nothing else.
        self._obs = obs
        if obs is not None:
            obs.bind(self)

    # ------------------------------------------------------------------
    # Resource helpers

    def _free_space(self, channel: Channel) -> int:
        return self._net_states[channel].free_space

    @property
    def network_channel_states(self) -> Dict[Channel, ChannelState]:
        """The live per-channel resource table, in topology order.

        Read-only view for observability: the metrics collector samples
        ``owner`` and ``count`` from these states each cycle.  Mutating
        them voids the determinism contract.
        """
        return self._net_states

    @property
    def total_injected(self) -> int:
        """Packets that have started injecting (running total)."""
        return self._total_injected

    @property
    def total_delivered(self) -> int:
        """Packets fully consumed at their destination (running total)."""
        return self._total_delivered

    @property
    def route_cache(self) -> Optional[RouteCache]:
        """The memoized routing table, or ``None`` for uncacheable
        algorithms (reported by ``repro bench``)."""
        return self._route_cache

    def occupancy_snapshot(self) -> int:
        """Total flits currently buffered in the network (for tests)."""
        total = sum(s.count for s in self._net_states.values())
        total += sum(s.count for s in self._inj_states.values())
        total += sum(s.count for s in self._ej_states.values())
        return total

    # ------------------------------------------------------------------
    # Phase 0: message generation and injection-channel allocation

    def _generate(self, stats: StatsCollector) -> None:
        # Event-driven: only sources whose next arrival time has passed
        # are popped from the heap and polled.  Ready sources are
        # processed in source-index order — the order the reference
        # polling loop visited them — so message creation order, the
        # max_packets cut-off, and every per-source RNG stream are
        # bit-identical to polling all sources each cycle (a source
        # whose arrival is still in the future draws nothing either way).
        heap = self._arrival_heap
        cycle = self.cycle
        if not heap or heap[0][0] > cycle:
            return
        ready: List[Tuple[float, int]] = []
        while heap and heap[0][0] <= cycle:
            ready.append(heappop(heap))
        if len(ready) > 1:
            ready.sort(key=lambda entry: entry[1])
        cap = self.config.max_packets
        sources = self._sources
        queues = self._queues
        pre = self._pre_pairs
        if cap is None and pre is not None:
            # Uncapped fast path over the pre-drawn schedule: every
            # arrival is enqueued, so the per-message cap check and
            # counter updates hoist out, record_created's window test is
            # inlined, and no RNG work happens on the clock.
            pos_list = self._pre_pos
            ws = stats.window_start
            we = stats.window_end
            add_candidate = self._inj_candidates.add
            created = 0
            offered = 0
            measured = 0
            for _, index in ready:
                pairs = pre[index]
                pos = pos_list[index]
                n = len(pairs)
                queue = queues[index]
                before = created
                while pos < n:
                    arrival, entry = pairs[pos]
                    if arrival > cycle:
                        break
                    pos += 1
                    if entry is not None:
                        queue.append(entry)
                        created += 1
                        if ws <= arrival < we:
                            offered += entry[1]
                            measured += 1
                pos_list[index] = pos
                heappush(
                    heap,
                    (
                        pairs[pos][0] if pos < n else sources[index].next_arrival,
                        index,
                    ),
                )
                if created != before:
                    add_candidate(index)
            self._messages_created += created
            self._queued_total += created
            stats.offered_flits_in_window += offered
            stats.measured_created += measured
            return
        if cap is None:
            # Uncapped, live polling (schedule precompute was skipped).
            ws = stats.window_start
            we = stats.window_end
            add_candidate = self._inj_candidates.add
            created = 0
            offered = 0
            measured = 0
            for _, index in ready:
                source = sources[index]
                arrivals = source.poll(cycle)
                heappush(heap, (source.next_arrival, index))
                if arrivals:
                    queue = queues[index]
                    add_candidate(index)
                    for entry in arrivals:
                        queue.append(entry)
                        if ws <= entry[2] < we:
                            offered += entry[1]
                            measured += 1
                    created += len(arrivals)
            self._messages_created += created
            self._queued_total += created
            stats.offered_flits_in_window += offered
            stats.measured_created += measured
            return
        for pos, (_, index) in enumerate(ready):
            if pre is not None:
                pairs = pre[index]
                p = self._pre_pos[index]
                n = len(pairs)
                arrivals = []
                while p < n and pairs[p][0] <= cycle:
                    entry = pairs[p][1]
                    if entry is not None:
                        arrivals.append(entry)
                    p += 1
                self._pre_pos[index] = p
                next_key = (
                    pairs[p][0] if p < n else sources[index].next_arrival
                )
            else:
                source = sources[index]
                arrivals = source.poll(cycle)
                next_key = source.next_arrival
            heappush(heap, (next_key, index))
            queue = queues[index]
            for dest, size, create_time in arrivals:
                if cap is not None and self._messages_created >= cap:
                    # The reference loop returns here too, leaving the
                    # remaining sources untouched this cycle; keep their
                    # heap entries so they are revisited next cycle.
                    for entry in ready[pos + 1 :]:
                        heappush(heap, entry)
                    return
                self._messages_created += 1
                queue.append((dest, size, create_time))
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
        cache = self._route_cache
        if cache is not None:
            states = cache.candidates(in_channel, node, packet.dest)
        else:
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

    def _header_arrived(self, packet: Packet) -> None:
        packet.header_present = True
        packet.waiting_since = self.cycle
        packet.pending_candidates = None
        self._new_waiters.append(packet)

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

    def _resilience_tick(self, ctrl: "FaultController") -> None:
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
        # 2. Apply the due fail/heal events.  ``advance`` rebuilds the
        #    degraded topology/routing pair and (unless disabled)
        #    re-certifies it deadlock-free, raising CertificationError
        #    on refutation — the run must not proceed unsafely.
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

    def _refresh_routing(
        self, ctrl: "FaultController", changed: List[Channel]
    ) -> None:
        """Swap in the controller's current routing and fix the cache.

        A filter-mode degradation (:class:`DegradedRouting` over the
        same base) only changes decisions at the endpoints of ``changed``
        channels, so the existing cache is retargeted and just those
        nodes' entries are dropped.  A factory-rebuilt algorithm may
        shift decisions anywhere (a reachability oracle recomputes
        globally), so it gets a fresh cache; the hit/miss counters carry
        over for ``repro bench`` reporting.
        """
        new = ctrl.current_routing
        prev = self._active_routing
        if new is None or new is prev:
            return
        self._active_routing = new
        cache = self._route_cache
        if not getattr(new, "cacheable", True):
            self._route_cache = None
            return
        same_base = (
            getattr(new, "degraded_base", new)
            is getattr(prev, "degraded_base", prev)
        )
        if cache is not None and same_base:
            cache.retarget(new)
            cache.invalidate_channels(changed)
            return
        fresh = RouteCache(new, resolve=self._net_states.__getitem__)
        if cache is not None:
            fresh.hits = cache.hits
            fresh.misses = cache.misses
        self._route_cache = fresh

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

    # ------------------------------------------------------------------
    # Main loop

    def run(self) -> SimulationResult:
        """Run the configured number of cycles and return the results.

        The main loop fast-forwards over *idle* stretches: when no
        packet is active, no header is waiting, and every source queue
        is empty, nothing can happen until the next message arrival, so
        the clock jumps straight to it.  The jump is clamped to the
        warmup/measurement window boundaries (their queue samples must
        be taken on the exact reference cycles) and to the final cycle,
        and the deadlock watchdog only measures stalls while packets are
        in flight — so skipped cycles are exactly the cycles on which
        the reference engine did nothing, and results are bit-identical.
        """
        config = self.config
        warmup = config.warmup_cycles
        window_end = warmup + config.measure_cycles
        stats = StatsCollector(warmup, window_end)
        self._stats = stats
        resilience = self._resilience
        total = config.total_cycles
        max_packets = config.max_packets
        deadlock_threshold = config.deadlock_threshold
        multilane = self._multilane
        context = self._context
        trace = self.trace
        move = (
            self._move1
            if not multilane and config.buffer_depth == 1
            else self._move
        )
        generate = self._generate
        start_packets = self._start_packets
        allocate = self._allocate
        # All four containers are mutated in place, never rebound, so
        # they can feed the per-cycle phase-dispatch checks as locals
        # (the waiter list IS rebound by _allocate and is read fresh).
        heap = self._arrival_heap
        inj_candidates = self._inj_candidates
        new_waiters = self._new_waiters
        woken = self._woken
        active = self._active
        obs = self._obs
        cycle = 0
        while cycle < total:
            self.cycle = cycle
            context.cycle = cycle
            self.cycles_executed += 1
            self._in_window = warmup <= cycle < window_end
            if cycle == warmup:
                stats.queue_len_at_window_start = self._queued_total
            if cycle == window_end:
                stats.queue_len_at_window_end = self._queued_total
            # Runtime faults: the controller advertises the next cycle
            # it has work (a schedule event or a due retransmission), so
            # fault-free cycles — and entire fault-free runs — cost one
            # comparison here.
            if resilience is not None and resilience.next_wake <= cycle:
                self._resilience_tick(resilience)
            # Dispatch each phase only when it has work: a phase with an
            # empty work set is a no-op in the reference engine too.
            if heap and heap[0][0] <= cycle:
                generate(stats)
            if inj_candidates:
                start_packets()
            if self._waiters or new_waiters or woken:
                allocate()
            if resilience is not None and self._res_abort:
                # An AbortRun recovery policy stopped the run.
                break
            if multilane:
                self._phy_used.clear()
                if len(active) > 1:
                    # Rotate processing order so no packet systematically
                    # wins the physical-bandwidth race between lanes.
                    active.append(active.pop(0))
            any_moved = False
            finished: Optional[List[Packet]] = None
            for packet in active:
                if packet.stalled:
                    continue
                if move(packet, stats):
                    any_moved = True
                    # Consumption happens only inside a successful move,
                    # so the finished check hides behind it.
                    if packet.flits_consumed >= packet.size:
                        if finished is None:
                            finished = [packet]
                        else:
                            finished.append(packet)
            if finished is not None:
                for packet in finished:
                    self._finish(packet, stats)
                    # Identity-based removal preserves the order the
                    # reference rebuild kept.
                    active.remove(packet)
            if any_moved:
                self._last_progress = cycle
            elif (
                active
                and cycle - self._last_progress >= deadlock_threshold
            ):
                self._deadlocked = True
                if trace is not None:
                    trace.record(cycle, "deadlock", -1)
                break
            if (
                max_packets is not None
                and self._messages_created >= max_packets
                and not active
                and self._queued_total == 0
                and (resilience is None or not resilience.retries_pending)
            ):
                break
            # Observability sampling happens after every phase of the
            # cycle has settled; the hook is read-only, so results with
            # and without a collector are bit-identical.
            if obs is not None:
                obs.on_cycle_end(cycle, self)
            cycle += 1
            if (
                not active
                and cycle < total
                and not self._waiters
                and not new_waiters
                and self._queued_total == 0
            ):
                # Idle fast-forward: jump to the next arrival (the heap
                # top), clamped so window-boundary cycles and the final
                # cycle still execute.
                if heap:
                    next_arrival = heap[0][0]
                    target = int(next_arrival)
                    if target < next_arrival:
                        target += 1
                else:
                    target = total - 1
                if resilience is not None:
                    # The next fault event or due retransmission must
                    # still execute on its exact cycle (``inf`` when the
                    # controller is idle fails the comparison).
                    wake = resilience.next_wake
                    if wake < target:
                        target = int(wake)
                if cycle <= warmup:
                    target = min(target, warmup)
                elif cycle <= window_end:
                    target = min(target, window_end)
                if target > cycle:
                    cycle = min(target, total - 1)
        if stats.queue_len_at_window_start is None:
            stats.queue_len_at_window_start = self._queued_total
        if stats.queue_len_at_window_end is None:
            stats.queue_len_at_window_end = self._queued_total
        if resilience is not None:
            resilience.finish(self._messages_created, self.cycle)
        if obs is not None:
            obs.finish(self)
        return self._result(stats)

    def _total_queued(self) -> int:
        return self._queued_total

    def _result(self, stats: StatsCollector) -> SimulationResult:
        latencies = stats.latencies_cycles
        hops = stats.hops
        delays = stats.queue_delays_cycles
        # Explicit None checks: a legitimate sample of 0 (empty queues at
        # a window boundary) must not be confused with "never sampled"
        # (run() backfills both before calling here, but a truthiness
        # fallback would silently mask that distinction).
        queue_start = stats.queue_len_at_window_start
        if queue_start is None:
            queue_start = 0
        queue_end = stats.queue_len_at_window_end
        if queue_end is None:
            queue_end = 0
        by_size = {
            size: sum(values) / len(values)
            for size, values in sorted(stats.latencies_by_size.items())
        }
        return SimulationResult(
            offered_load=self.workload.offered_load,
            cycle_time_usec=self.config.cycle_time_usec,
            num_nodes=self.topology.num_nodes,
            avg_latency_cycles=sum(latencies) / len(latencies) if latencies else 0.0,
            latency_samples=len(latencies),
            measured_created=stats.measured_created,
            delivered_flits=stats.flits_delivered_in_window,
            offered_flits=stats.offered_flits_in_window,
            measure_cycles=self.config.measure_cycles,
            avg_hops=sum(hops) / len(hops) if hops else 0.0,
            avg_queue_delay_cycles=sum(delays) / len(delays) if delays else 0.0,
            queue_start=queue_start,
            queue_end=queue_end,
            deadlocked=self._deadlocked,
            total_injected=self._total_injected,
            total_delivered=self._total_delivered,
            p50_latency_cycles=percentile(latencies, 0.50),
            p95_latency_cycles=percentile(latencies, 0.95),
            max_latency_cycles=max(latencies) if latencies else 0.0,
            latency_by_size_cycles=by_size,
        )
