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

The engine keeps no per-channel objects.  Three structural facts make
its hot phases — ``_allocate``, ``_move``/``_move1``, ``_released``,
``_start_packets`` — a matter of list indexing and int arithmetic:

* **Ids replace objects.**  Construction compiles the topology into a
  :class:`~repro.sim.ids.ChannelIndex`; a packet's ``path`` holds
  channel ids, ownership is one list (``_owners``), candidate routes
  are tuples of ids, and per-channel wake lists and ranking keys are
  parallel lists.

* **Shared buffer counts are redundant.**  Wormhole ownership is
  exclusive, so a held channel's buffer count always equals the owner's
  own occupancy entry — the movers never store a shared count at all.
  The obs collector is told when a fill changes instead (see
  :meth:`WormholeSimulator.run`), and the invariant tests derive counts
  from the active packets.

* **Capacity-1 movement is a bit-parallel shift.**  With single-flit
  buffers on a single lane, a packet's occupancy is a bitmask; the
  front-first boundary pass moves exactly the maximal runs of flits not
  blocked at the front, which is a handful of int operations (see
  :meth:`WormholeSimulator._move1`).  A streaming worm — ejection
  granted, flits still at the source, every held buffer full — repeats
  one such shift verbatim, so it *cruises*: the clock loop advances all
  cruising worms in aggregate, O(1) per executed cycle, and calls the
  mover on one again only when its source runs dry.

Message generation is event-driven too: an arrival heap holds each
source's next arrival time, and a cycle polls
(:meth:`~repro.traffic.workload.NodeSource.poll`) only the sources whose
arrival has come, in source order — the very draws and creation order
of polling every source on every cycle.

Routing decisions compile lazily into a
:class:`~repro.sim.ids.CompiledRoutes` that every simulator of one
``(topology, routing)`` key shares by reference (the sweep runtime
keeps one per warm context), so a key's table is computed once per
process however many points run on it.  Allocation reads the table's
dense list itself and asks :meth:`~repro.sim.ids.CompiledRoutes.lookup`
only for what the list does not hold; a fault moves the run onto the
controller's degraded table, and a full heal back.  An independent
object-graph implementation of the same phases, on a plain clock loop
and arrival scan of its own, lives under ``tests/`` as the differential
oracle (``tests/sim/reference_engine.py``).
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.selection import SelectionContext
from repro.sim.config import SimulationConfig
from repro.sim.ids import CompiledRoutes
from repro.sim.packet import Packet
from repro.sim.stats import SimulationResult, StatsCollector, percentile
from repro.sim.trace import TraceRecorder
from repro.topology.channels import Channel, NodeId
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.prewarm import WarmContext
    from repro.obs.metrics import MetricsCollector
    from repro.resilience.controller import FaultController

__all__ = ["WormholeSimulator", "RoutingError", "make_simulator"]


class RoutingError(RuntimeError):
    """The routing algorithm offered no candidates for a reachable state."""


def _arrival_key(packet: Packet) -> Tuple[int, int]:
    return (packet.waiting_since, packet.pid)


def _pid_key(packet: Packet) -> int:
    return packet.pid


def _reporting_fills(move, inj_base: int, channel_obs):
    """The list mover ``_move`` wrapped to report every network channel
    whose fill a call changed to ``channel_obs``.

    Only the net change of a call is reported, on the channels still
    held after it: the rear channels the call released were settled by
    their release event, so the entries from before the call are
    realigned past them.  A call that moved no flit changed no fill.
    Built per run, never stored on the simulator.
    """
    fill_changed = channel_obs.fill_changed

    def move_reporting(packet: Packet, stats: StatsCollector) -> bool:
        before = packet.occupancy[:]
        if not move(packet, stats):
            return False
        occ = packet.occupancy
        released = len(before) - len(occ)
        path = packet.path
        for pos, fill in enumerate(occ):
            if fill != before[released + pos]:
                ident = path[pos]
                if ident < inj_base:
                    fill_changed(ident, fill)
        return True

    return move_reporting


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
    """Simulates one workload on one topology with one routing algorithm.

    Every phase preserves one event order, RNG draw order and set of
    tie-breaks, so results, traces, and digests are a pure function of
    the inputs (golden-gated, ``tests/sim/test_determinism.py``).
    """

    def __init__(
        self,
        routing: RoutingAlgorithm,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        preload: Optional[List[Tuple[NodeId, NodeId, int, float]]] = None,
        trace: Optional[TraceRecorder] = None,
        resilience: Optional["FaultController"] = None,
        obs: Optional["MetricsCollector"] = None,
        compiled_routes: Optional[CompiledRoutes] = None,
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
            compiled_routes: the key's shared
                :class:`~repro.sim.ids.CompiledRoutes` (see
                :class:`repro.analysis.prewarm.WarmContext`); must have
                been compiled for this very ``routing`` instance.
                Omitted, the simulator compiles a private one.  Routing
                decisions are pure, so a warmed run is bit-identical to
                a cold one.
        """
        if compiled_routes is None:
            compiled_routes = CompiledRoutes(routing)
        elif compiled_routes.routing is not routing:
            raise ValueError(
                f"compiled routes belong to another routing instance "
                f"({compiled_routes.routing.name!r}), not this "
                f"{routing.name!r}"
            )
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

        self._sources = workload.sources()
        self._queues: List[Deque[Tuple[NodeId, int, float]]] = [
            deque() for _ in self._sources
        ]
        # The context must not own the simulator (a bound method would):
        # a finished simulator is then freed by reference count, inside
        # the point that built it, not whenever a full garbage collection
        # next happens to run — which lands on some later point's clock.
        this = weakref.proxy(self)
        self._context = SelectionContext(
            free_space=lambda channel: this._free_space(channel),
            rng=random.Random(self.config.seed),
        )
        self._active: List[Packet] = []
        self._waiters: List[Packet] = []
        self._messages_created = 0
        self._preload_count = 0
        if preload:
            queue_of = {src.node: q for src, q in zip(self._sources, self._queues)}
            for src, dest, size, create_time in preload:
                self.topology.validate_node(src)
                self.topology.validate_node(dest)
                if src == dest:
                    raise ValueError(f"preloaded message sends {src} to itself")
                queue_of[src].append((dest, size, create_time))
                self._messages_created += 1
                self._preload_count += 1
        self._next_pid = 0
        self._total_injected = 0
        self._total_delivered = 0
        self._last_progress = 0
        self._deadlocked = False
        self.cycle = 0
        index = compiled_routes.index
        self._index = index
        self._compiled = compiled_routes
        # Virtual channels: lanes share their physical link's bandwidth
        # (one flit per cycle per physical channel, Section 1).  The
        # stall-skipping optimization is disabled when lanes contend,
        # since a packet blocked by the *other* lane's flit can resume
        # without any allocation event.
        self._multilane = index.multilane
        self._phy_used: set = set()
        # Parallel resource arrays.  There is no shared count array:
        # wormhole ownership is exclusive, so a held channel's fill is
        # the owner's own occupancy entry.
        total_ids = index.total_ids
        self._owners: List[Optional[Packet]] = [None] * total_ids
        self._wake: List[list] = [[] for _ in range(total_ids)]
        self._dest_ids = index.dest_node_id
        self._channel_of = index.channel_of
        self._node_of = index.node_of
        self._phys_of = index.phys_of
        self._inj_base = index.inj_base
        self._ej_base = index.ej_base
        self._capacity = self.config.buffer_depth
        # Bitmask occupancy applies exactly when run() picks _move1.
        self._bitocc = not self._multilane and self._capacity == 1
        # Injection ids and the inverse (injection node -> source index)
        # for _released; pid assignment order follows source order.
        node_id = index.node_id
        self._inj_ids = [
            index.inj_base + node_id[source.node] for source in self._sources
        ]
        src_of_node = [-1] * index.num_nodes
        for src_index, source in enumerate(self._sources):
            src_of_node[node_id[source.node]] = src_index
        self._src_of_node = src_of_node
        # One preallocated (ejection_id,) tuple per node: the most
        # common candidate set, allocation-free.
        ej_base = index.ej_base
        self._ej_tuples = [(ej_base + i,) for i in range(index.num_nodes)]
        # The compiled table headers route on: the key's shared one, or
        # the fault controller's degraded restriction of it.
        self._routes = compiled_routes
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
        self._inj_candidates: set = {
            index for index, queue in enumerate(self._queues) if queue
        }
        #: Flits transferred over the whole run (consumptions, channel
        #: crossings, and injections) — a work metric that the idle
        #: fast-forward does not inflate.
        self.flit_moves = 0
        #: Main-loop iterations actually executed; less than the cycles
        #: simulated when the idle fast-forward skips dead time.
        self.cycles_executed = 0
        #: Times a worm entered the cruise state, and the worm-cycles
        #: (one ``_move1`` call each, before) cruising worms streamed
        #: without one; counted at cruise exit or casualty, never per
        #: cycle.  Host-side telemetry: in no result, digest or hash.
        self.cruise_entries = 0
        self.cruise_worm_cycles = 0
        # Cruising worms by exit cycle, and what they all move per
        # executed cycle: ``held + 1`` flit moves and one delivered flit
        # each (see _move1).
        self._cruise_exits: Dict[int, List[Packet]] = {}
        self._cruise_moves = 0
        self._cruising = 0
        # Whether the current cycle is inside the measurement window —
        # hoisted out of the per-flit consumption accounting.
        self._in_window = False
        # Pure-ranking output policies (e.g. xy): each network channel's
        # sort key is precomputed, so a multi-candidate grant is a min()
        # over the free list instead of a dict build plus a select()
        # call.  Keys are densified to ints: equal keys map to equal
        # ints and order is preserved, so min() over free candidates
        # (ties to the earliest) grants identically.
        ranking = getattr(self.config.output_policy, "ranking", None)
        self._ranks: Optional[List[int]] = None
        if ranking is not None:
            keys = [ranking(channel) for channel in index.channels]
            dense_rank = {key: pos for pos, key in enumerate(sorted(set(keys)))}
            self._ranks = [dense_rank[key] for key in keys]
        # Runtime fault injection.  Headers route against ``_routes``,
        # which moves to the controller's degraded table when a fault is
        # applied and back when every channel heals.  ``_strict_routes``
        # preserves the historical contract (empty candidate sets raise)
        # for fault-free runs.
        self._resilience = resilience
        self._strict_routes = resilience is None
        self._res_abort = False
        self._stats: Optional[StatsCollector] = None
        if resilience is not None:
            resilience.bind(routing, self.topology, compiled_routes)
        # Observability: same cheap-hook contract as the fault
        # controller — a run without a collector pays one ``is not
        # None`` test per hook site and nothing else.
        self._obs = obs
        if obs is not None:
            obs.bind(self)
        # The collector's per-channel accounting, told of every network
        # grant, fill change and release (None: no channel heatmap).
        self._channel_obs = obs if obs is not None and obs.spec.channels else None

    # ------------------------------------------------------------------
    # Resource helpers

    def _free_space(self, channel: Channel) -> int:
        ident = self._index.cid[channel]
        packet = self._owners[ident]
        if packet is None:
            return self._capacity
        pos = packet.path.index(ident)
        if self._bitocc:
            return self._capacity - ((packet.occ_bits >> pos) & 1)
        return self._capacity - packet.occupancy[pos]

    @property
    def network_channels(self) -> List[Channel]:
        """The network channels in id order (``topology.channels()``
        order): network channel ``i`` has id ``i``, which is how the obs
        collector's channel events name it."""
        return self._index.channels

    @property
    def total_injected(self) -> int:
        """Packets that have started injecting (running total)."""
        return self._total_injected

    @property
    def total_delivered(self) -> int:
        """Packets fully consumed at their destination (running total)."""
        return self._total_delivered

    @property
    def route_cache(self) -> CompiledRoutes:
        """The compiled routing table the run currently routes on."""
        return self._routes

    def occupancy_snapshot(self) -> int:
        """Total flits currently buffered in the network (for tests)."""
        return sum(packet.flits_in_network for packet in self._active)

    # ------------------------------------------------------------------
    # Phase 0: message generation and injection-channel allocation

    def _generate(self, stats: StatsCollector) -> None:
        # Event-driven: only sources whose next arrival time has passed
        # are popped from the heap and polled.  Ready sources are
        # processed in source-index order — the order a loop polling
        # every source each cycle visits them — so message creation
        # order, the max_packets cut-off, and every per-source RNG stream
        # are bit-identical to that loop (a source whose arrival is still
        # in the future draws nothing either way).
        heap = self._arrival_heap
        cycle = self.cycle
        ready: List[Tuple[float, int]] = []
        while heap and heap[0][0] <= cycle:
            ready.append(heappop(heap))
        if len(ready) > 1:
            ready.sort(key=lambda entry: entry[1])
        cap = self.config.max_packets
        sources = self._sources
        queues = self._queues
        add_candidate = self._inj_candidates.add
        record_created = stats.record_created
        for pos, (_, index) in enumerate(ready):
            source = sources[index]
            arrivals = source.poll(cycle)
            heappush(heap, (source.next_arrival, index))
            queue = queues[index]
            for entry in arrivals:
                if cap is not None and self._messages_created >= cap:
                    # The polling loop returns here too, leaving the
                    # remaining sources untouched this cycle; keep their
                    # heap entries so they are revisited next cycle.
                    for rest in ready[pos + 1 :]:
                        heappush(heap, rest)
                    return
                self._messages_created += 1
                self._queued_total += 1
                queue.append(entry)
                add_candidate(index)
                record_created(entry[2], entry[1])

    def _start_packets(self) -> None:
        # Event-driven: only flagged sources are visited, in source-index
        # order so pids are assigned exactly as a full scan would assign
        # them.  A source that cannot start a packet right now is dropped
        # from the candidate set — the event that changes that (a new
        # message, or its injection channel being released) re-flags it.
        pending = self._inj_candidates
        if not pending:
            return
        cycle = self.cycle
        trace = self.trace
        sources = self._sources
        queues = self._queues
        inj_ids = self._inj_ids
        owners = self._owners
        active = self._active
        node_id = self._index.node_id
        bitocc = self._bitocc
        for index in sorted(pending):
            queue = queues[index]
            if not queue:
                continue
            inj = inj_ids[index]
            if owners[inj] is not None:
                continue
            dest, size, create_time = queue.popleft()
            self._queued_total -= 1
            source = sources[index]
            packet = Packet(self._next_pid, source.node, dest, size, create_time)
            packet.dest_id = node_id[dest]
            self._next_pid += 1
            owners[inj] = packet
            packet.path.append(inj)
            if not bitocc:
                packet.occupancy.append(0)
            active.append(packet)
            self._total_injected += 1
            self._last_progress = cycle
            if trace is not None:
                trace.record(cycle, "injected", packet.pid, (source.node, dest))
        pending.clear()

    # ------------------------------------------------------------------
    # Phase 1: routing and channel allocation

    def _no_route(self, packet: Packet, front: int, node_idx: int) -> None:
        """Raise the no-route error of a fault-free run (cold path)."""
        in_channel = (
            self._channel_of[front] if front < self._inj_base else None
        )
        node = self._index.nodes[node_idx]
        raise RoutingError(
            f"{self.routing.name} offered no route for {packet!r} at "
            f"{node} (arrived via {in_channel})"
        )

    def _allocate(self) -> None:
        # The waiter list stays incrementally ordered for stateless
        # input policies: headers that arrived since the last pass all
        # share the current arrival cycle, which (for a policy whose
        # priority is strictly increasing in it, e.g. FCFS) sorts them
        # after every existing waiter — so a pid-sort of the newcomers
        # appended at the tail reproduces a full sort by
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
        ranks = self._ranks
        owners = self._owners
        channel_obs = self._channel_obs
        wake_lists = self._wake
        ej_base = self._ej_base
        channel_of = self._channel_of
        node_of = self._node_of
        bitocc = self._bitocc
        dest_ids = self._dest_ids
        ej_tuples = self._ej_tuples
        num_nodes = self._index.num_nodes
        strict = self._strict_routes
        routes = self._routes
        dense = routes.dense
        lookup = routes.lookup
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
                # The two overwhelmingly common cases are inlined: the
                # header is at its destination (ejection singleton) or
                # the dense table already holds its routing state.
                front = packet.path[-1]
                node_idx = dest_ids[front]
                if node_idx == packet.dest_id:
                    candidates = ej_tuples[node_idx]
                else:
                    if dense is not None:
                        candidates = dense[node_idx * num_nodes + packet.dest_id]
                    if candidates is None:
                        candidates = lookup(front, packet.dest_id)
                    if not candidates:
                        if strict:
                            self._no_route(packet, front, node_idx)
                        # Only reachable with a fault controller bound:
                        # the degraded topology stranded this header.
                        self._recover(packet, in_allocation=True)
                        continue
                packet.pending_candidates = candidates
            if len(candidates) == 1:
                # Single candidate (ejection, or a one-way route): no
                # free-list build, no selection.
                chosen = candidates[0]
                if owners[chosen] is not None:
                    if park:
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        wake_lists[chosen].append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
            else:
                free = [c for c in candidates if owners[c] is None]
                if not free:
                    if park:
                        # Nothing can free a candidate except a release
                        # in the movement phase, which wakes the packet —
                        # so leaving the waiter list loses no grant
                        # opportunity.
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        for c in candidates:
                            wake_lists[c].append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
                # Multi-candidate routes never include the ejection
                # channel (it is always offered alone).
                if len(free) == 1:
                    chosen = free[0]
                elif ranks is not None:
                    # The output policy is a pure ranking: min over the
                    # free ids by their precomputed key, ties to the
                    # earliest candidate.
                    chosen = min(free, key=ranks.__getitem__)
                else:
                    by_channel = {channel_of[c]: c for c in free}
                    pick = output_policy.select(list(by_channel), context)
                    chosen = by_channel[pick]
            owners[chosen] = packet
            packet.path.append(chosen)
            if not bitocc:
                packet.occupancy.append(0)
            packet.header_present = False
            packet.pending_candidates = None
            packet.stalled = False
            if chosen >= ej_base:
                packet.route_complete = True
            else:
                packet.hops += 1
                if channel_obs is not None:
                    # A capacity-1 worm is compact: its header enters the
                    # channel in this cycle's movement phase and the
                    # channel stays full until released (see run()).
                    channel_obs.channel_acquired(chosen, bitocc)
            self._last_progress = cycle
            if trace is not None:
                if chosen >= ej_base:
                    trace.record(
                        cycle, "eject-granted", packet.pid, node_of[chosen]
                    )
                else:
                    trace.record(
                        cycle, "granted", packet.pid, channel_of[chosen]
                    )
        self._waiters = still_waiting

    # ------------------------------------------------------------------
    # Phase 2: flit movement

    def _move(self, packet: Packet, stats: StatsCollector) -> bool:
        # The general mover (deep buffers and/or virtual channels):
        # occupancy lists over ids, physical-link arbitration over
        # dense link ids.
        path = packet.path
        occ = packet.occupancy
        cycle = self.cycle
        moves = 0
        # Consume at the destination processor: one flit per cycle off the
        # ejection buffer ("messages that arrive ... are immediately
        # consumed").
        if packet.route_complete and occ[-1] > 0:
            occ[-1] -= 1
            packet.flits_consumed += 1
            if self._in_window:
                stats.flits_delivered_in_window += 1
            moves = 1
        front_index = len(path) - 1
        multilane = self._multilane
        capacity = self._capacity
        if multilane:
            phy_used = self._phy_used
            phys_of = self._phys_of
            inj_base = self._inj_base
        # Advance flits across each held channel, front boundary first, so
        # a slot freed downstream is reusable upstream in the same cycle.
        i = front_index
        while i:
            below = occ[i - 1]
            if below and occ[i] < capacity:
                if multilane:
                    ident = path[i]
                    if ident < inj_base:
                        physical = phys_of[ident]
                        if physical in phy_used:
                            i -= 1
                            continue
                        phy_used.add(physical)
                occ[i - 1] = below - 1
                occ[i] += 1
                moves += 1
                if (
                    i == front_index
                    and not packet.header_present
                    and not packet.route_complete
                ):
                    self._header_arrived(packet)
            i -= 1
        # Inject the next flit from the source queue into the injection
        # buffer (the packet owns its injection channel until fully
        # injected).
        if packet.remaining_to_inject > 0 and occ[0] < capacity:
            occ[0] += 1
            packet.remaining_to_inject -= 1
            moves += 1
            if packet.inject_cycle is None:
                packet.inject_cycle = cycle
                self._header_arrived(packet)
        # Release channels the tail has fully passed.
        owners = self._owners
        released = self._released
        while len(path) > 1 and occ[0] == 0:
            rear = path[0]
            if rear >= self._inj_base and packet.remaining_to_inject > 0:
                break
            owners[rear] = None
            released(rear)
            del path[0]
            del occ[0]
        if moves:
            self.flit_moves += moves
            return True
        if not packet.route_complete and not multilane:
            packet.stalled = True
        return False

    def _move1(self, packet: Packet, stats: StatsCollector) -> bool:
        """:meth:`_move` as a bit-parallel shift, for single-flit buffers
        on a single lane.

        The packet's occupancy is the bitmask ``occ_bits`` (bit *i* =
        fill of ``path[i]``).  The front-first boundary pass of
        :meth:`_move` advances exactly the maximal runs of flits that are not blocked
        at the front: the run containing the front slot (if occupied)
        cannot move, and every other maximal run has an empty slot
        directly above it and shifts up by one.  With ``movers`` = the
        occupied bits below the highest empty slot, that whole pass is
        ``bits += movers`` — the shifted runs land exactly on the bits
        vacated plus the hole above each run.

        **Cruise.**  A call that leaves the worm with its ejection
        channel granted, flits still at the source and every held
        buffer full has reached a fixed point: each later call would
        consume one flit, shift the other ``held - 1`` up and inject one
        — ``held + 1`` moves and one delivered flit, with ``path`` and
        ``occ_bits`` unchanged, no channel acquired or released, no
        header event, and at least ``held`` flits short of finished —
        until the source runs dry.  So with ``r`` flits left to inject
        at cycle ``c`` the worm stops being moved one call at a time:
        it registers its exit at ``c + r + 1`` and :meth:`run` adds the
        aggregate of all cruising worms once per executed cycle.
        ``remaining_to_inject`` and ``flits_consumed`` stay as of entry
        until :meth:`_leave_cruise` settles them.
        """
        path = packet.path
        bits = packet.occ_bits
        held = len(path)
        front = held - 1
        moves = 0
        complete = packet.route_complete
        if complete and bits >> front:
            bits ^= 1 << front
            packet.flits_consumed += 1
            if self._in_window:
                stats.flits_delivered_in_window += 1
            moves = 1
        if front and bits:
            # Highest empty slot h-1; bits h..front are the (immobile)
            # front-blocked run; everything below position h moves up.
            inv = ~bits & ((1 << (front + 1)) - 1)
            movers = bits & ((1 << inv.bit_length()) - 1)
            if movers:
                bits += movers
                moves += movers.bit_count()
                if (
                    movers >> (front - 1)
                    and not packet.header_present
                    and not complete
                ):
                    self._header_arrived(packet)
        if packet.remaining_to_inject > 0 and not bits & 1:
            bits |= 1
            packet.remaining_to_inject -= 1
            moves += 1
            if packet.inject_cycle is None:
                packet.inject_cycle = self.cycle
                self._header_arrived(packet)
        if not bits & 1 and held > 1:
            owners = self._owners
            released = self._released
            inj_base = self._inj_base
            while not bits & 1 and held > 1:
                rear = path[0]
                if rear >= inj_base and packet.remaining_to_inject > 0:
                    break
                owners[rear] = None
                released(rear)
                del path[0]
                held -= 1
                bits >>= 1
        packet.occ_bits = bits
        if moves:
            self.flit_moves += moves
            if (
                complete
                and bits == (1 << held) - 1
                and packet.remaining_to_inject > 0
            ):
                exit_cycle = self.cycle + packet.remaining_to_inject + 1
                packet.cruise_exit = exit_cycle
                packet.stalled = True
                self._cruise_exits.setdefault(exit_cycle, []).append(packet)
                self._cruise_moves += held + 1
                self._cruising += 1
                self.cruise_entries += 1
            return True
        if not complete:
            packet.stalled = True
        return False

    def _leave_cruise(self, packet: Packet, cycle: int) -> None:
        """Settle a cruising worm whose flits were last moved on
        ``cycle - 1``: it consumed and injected one flit on each cycle
        since entry (the caller takes it off ``_cruise_exits``)."""
        streamed = packet.remaining_to_inject - (packet.cruise_exit - cycle)
        packet.flits_consumed += streamed
        packet.remaining_to_inject -= streamed
        packet.cruise_exit = 0
        packet.stalled = False
        self._cruise_moves -= len(packet.path) + 1
        self._cruising -= 1
        self.cruise_worm_cycles += streamed

    def _released(self, ident: int) -> None:
        # An owner release is the only event that can unblock a parked
        # header or let a backlogged source inject, so this hook is the
        # sole feeder of ``_woken`` and (with message creation)
        # ``_inj_candidates`` — and the obs collector's release event.
        inj_base = self._inj_base
        if ident >= inj_base:
            if ident < self._ej_base:
                self._inj_candidates.add(self._src_of_node[ident - inj_base])
                return
        elif self._channel_obs is not None:
            self._channel_obs.channel_released(ident)
        wake = self._wake[ident]
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
        owners = self._owners
        released = self._released
        for ident in packet.path:
            owners[ident] = None
            released(ident)
        packet.path.clear()
        if self._bitocc:
            packet.occ_bits = 0
        else:
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
            index = self._src_of_node[self._index.node_id[src]]
            self._queues[index].append((dest, size, create_time))
            self._queued_total += 1
            self._inj_candidates.add(index)
        if ctrl.next_event_cycle > cycle:
            return
        # 2. Apply the due fail/heal events.  ``advance`` derives the
        #    degraded table from the healthy one and (unless disabled)
        #    proves it deadlock-free, raising
        #    CertificationError on refutation — the run must not proceed
        #    unsafely.  Meanwhile the run rests on the healthy table:
        #    the superseded degraded one is freed before the next is
        #    built, so two are never alive at once.
        self._routes = self._compiled
        events = ctrl.advance(cycle)
        # 3. Point allocation at the degraded routing relation.
        self._refresh_routing(ctrl)
        if not events:
            return
        trace = self.trace
        cid = self._index.cid
        victims: List[Packet] = []
        for event in events:
            if trace is not None:
                trace.record(cycle, "fault", -1, (event.kind, event.channel))
            if event.kind == "fail":
                owner = self._owners[cid[event.channel]]
                if owner is not None and owner not in victims:
                    victims.append(owner)
        # 4. Flush every routing decision taken against the old
        #    topology: pending candidates are re-resolved, and parked
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

    def _refresh_routing(self, ctrl: "FaultController") -> None:
        """Route on the controller's current table from now on.

        The run moves to the controller's degraded
        :class:`~repro.sim.ids.CompiledRoutes`: the healthy table with
        the ids the faults drop removed, on the run's *own* channel
        index (a degraded topology's channels are a subset, so ids never
        shift mid-run) — under recertification the very table that was
        certified (checked to restrict the proved healthy table).  The
        original table returns once every channel has healed.  Nothing is
        invalidated.
        """
        compiled = ctrl.current_compiled
        self._routes = compiled if compiled is not None else self._compiled

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
        exit_cycle = packet.cruise_exit
        if exit_cycle:
            # A cruising worm held a failed channel: it leaves the cruise
            # set, settled up to the last executed cycle, while its path
            # is still whole.
            due = self._cruise_exits[exit_cycle]
            due.remove(packet)
            if not due:
                del self._cruise_exits[exit_cycle]
            self._leave_cruise(packet, cycle)
        # Discard buffered flits (they live only in the packet's own
        # occupancy) and release the held chain.
        owners = self._owners
        released = self._released
        for ident in packet.path:
            owners[ident] = None
            released(ident)
        packet.path.clear()
        if self._bitocc:
            packet.occ_bits = 0
        else:
            packet.occupancy.clear()
        packet.pending_candidates = None
        packet.parked = False
        packet.park_token += 1  # invalidate stale wake-list entries
        packet.header_present = False
        packet.stalled = True
        # A casualty is a worm in flight — the owner of a failed channel
        # or a waiting header — so it is in ``_active``, and in at most
        # one wait list (none when parked).
        assert packet in self._active, f"casualty {packet!r} is not in flight"
        self._active.remove(packet)
        if not in_allocation:
            for waitlist in (self._waiters, self._new_waiters, self._woken):
                if packet in waitlist:
                    waitlist.remove(packet)
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
        in flight — so skipped cycles are exactly the cycles on which no
        phase would have had anything to do.  Busy cycles are never
        skipped: worms in the cruise state (:meth:`_move1`) are advanced
        in aggregate, once per executed cycle, which also counts as
        progress for the watchdog.  Bit-identity is not argued here but
        tested: the oracle under ``tests/sim/reference_engine.py`` runs
        a plain loop of its own — every phase on every executed cycle,
        a mover call per active packet — and must agree on results,
        traces, ledgers and obs summaries (goldens and property suite).
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
        bitocc = self._bitocc
        move = self._move1 if bitocc else self._move
        # Channel accounting is event-driven: the collector hears of each
        # network grant (_allocate) and release (_released), and of each
        # fill a move changes — so stalled and cruising worms, whose
        # fills stand still, cost it nothing.  With single-flit buffers
        # a worm is compact: after each _move1 call every position it
        # holds has a flit, save a channel granted this cycle and not
        # yet entered, and the header enters such a channel in the same
        # cycle's movement phase.  So a _move1 grant is reported as
        # filled, and only the list mover needs its fills reported.
        channel_obs = self._channel_obs
        if channel_obs is not None and not bitocc:
            move = _reporting_fills(move, self._inj_base, channel_obs)
        generate = self._generate
        start_packets = self._start_packets
        allocate = self._allocate
        # These containers are mutated in place, never rebound, so they
        # can feed the per-cycle phase-dispatch checks as locals (the
        # waiter list IS rebound by _allocate and is read fresh).
        heap = self._arrival_heap
        inj_candidates = self._inj_candidates
        new_waiters = self._new_waiters
        woken = self._woken
        active = self._active
        cruise_exits = self._cruise_exits
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
            # A run stops before its cycle budget in three ways — an
            # AbortRun recovery policy (before any flit moves), the
            # deadlock watchdog, or the max-packets drain — and all
            # three leave through the one exit below, so the stopping
            # cycle is sampled like every other executed cycle.
            stopping = resilience is not None and self._res_abort
            if not stopping:
                if multilane:
                    self._phy_used.clear()
                    if len(active) > 1:
                        # Rotate processing order so no packet systematically
                        # wins the physical-bandwidth race between lanes.
                        active.append(active.pop(0))
                any_moved = False
                if cruise_exits:
                    # Worms whose source runs dry this cycle rejoin the
                    # scan below (their drain releases a channel per
                    # cycle); the rest stream on in aggregate.
                    due = cruise_exits.pop(cycle, None)
                    if due is not None:
                        for packet in due:
                            self._leave_cruise(packet, cycle)
                    cruising = self._cruising
                    if cruising:
                        self.flit_moves += self._cruise_moves
                        if self._in_window:
                            stats.flits_delivered_in_window += cruising
                        any_moved = True
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
                stopping = self._deadlocked or (
                    max_packets is not None
                    and self._messages_created >= max_packets
                    and not active
                    and self._queued_total == 0
                    and (resilience is None or not resilience.retries_pending)
                )
            elif channel_obs is not None and bitocc:
                # An abort skips the movement phase that would carry each
                # header into the channel granted this cycle: those
                # channels are sampled empty.
                inj_base = self._inj_base
                for packet in active:
                    front = len(packet.path) - 1
                    ident = packet.path[front]
                    if ident < inj_base and not packet.occ_bits >> front & 1:
                        channel_obs.fill_changed(ident, 0)
            # The collector counts the cycle's sample after every phase
            # has settled; its hooks are read-only, so results with and
            # without a collector are bit-identical.
            if obs is not None:
                obs.on_cycle_end(cycle, self)
            if stopping:
                break
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
        # Worms still cruising when the clock stops are settled up to
        # the last cycle that moved flits (an abort stops before moving).
        moved_until = self.cycle + (0 if self._res_abort else 1)
        for due in cruise_exits.values():
            for packet in due:
                self._leave_cruise(packet, moved_until)
        cruise_exits.clear()
        if stats.queue_len_at_window_start is None:
            stats.queue_len_at_window_start = self._queued_total
        if stats.queue_len_at_window_end is None:
            stats.queue_len_at_window_end = self._queued_total
        if resilience is not None:
            resilience.finish(self._messages_created, self.cycle)
        if channel_obs is not None:
            # Channels still held when the clock stops close their
            # accounting intervals here, as if released.
            inj_base = self._inj_base
            for packet in active:
                for ident in packet.path:
                    if ident < inj_base:
                        channel_obs.channel_released(ident)
        if obs is not None:
            obs.finish(self)
        return self._result(stats)

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

def make_simulator(
    routing: RoutingAlgorithm,
    workload: Workload,
    config: Optional[SimulationConfig] = None,
    *,
    preload: Optional[List[Tuple[NodeId, NodeId, int, float]]] = None,
    trace: Optional[TraceRecorder] = None,
    resilience=None,
    obs=None,
    warm: Optional["WarmContext"] = None,
) -> WormholeSimulator:
    """Build the simulator for one run — the only place one is constructed.

    Args:
        warm: the warm context of the run's ``(topology, routing)`` key
            (:mod:`repro.analysis.prewarm`), whose ``routing`` must be
            this ``routing``; the simulator shares its compiled routing
            table instead of compiling a private one.

    Other arguments match :class:`WormholeSimulator`.
    """
    return WormholeSimulator(
        routing, workload, config, preload=preload, trace=trace,
        resilience=resilience, obs=obs,
        compiled_routes=warm.compiled_routes if warm is not None else None,
    )
