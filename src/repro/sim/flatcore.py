"""Flat integer-indexed engine core: the struct-of-arrays hot path.

:class:`FlatWormholeSimulator` re-implements the wormhole engine's hot
phases — ``_allocate``, ``_move``/``_move1``, ``_released``,
``_start_packets`` — over dense integer arrays compiled at construction
from the topology (:class:`~repro.sim.ids.ChannelIndex`), instead of
the object core's ``Channel``/``ChannelState`` graph and dict-keyed
lookups.  Three structural facts make the flat core fast *and*
bit-identical:

* **Ids replace objects.**  A packet's ``path`` holds channel ids;
  ownership is one list (``_owners``), candidate routes are tuples of
  ids, and per-channel wake lists and ranking keys are parallel lists.
  Every hot dict lookup becomes a list index.

* **Shared buffer counts are redundant.**  Wormhole ownership is
  exclusive, so a held channel's buffer count always equals the owner's
  own occupancy entry — the flat movers never store a shared count at
  all.  Cold consumers (``network_channel_states``, the obs layer)
  reconstruct the object view on demand.

* **Capacity-1 movement is a bit-parallel shift.**  With single-flit
  buffers on a single lane, a packet's occupancy is a bitmask; the
  reference front-first boundary pass moves exactly the maximal runs of
  flits not blocked at the front, which is a handful of int operations
  (see :meth:`FlatWormholeSimulator._move1`).

The flat core intentionally models a subset of engine features.  A
configuration it cannot model — an observability collector (which
samples live :class:`ChannelState` objects every cycle) or a fault
controller with a non-empty schedule (mid-run topology rebuilds) —
runs on the object core instead: :func:`make_simulator`, the one place
a simulator is constructed, reads the choice off the input and records
the reason on the simulator it returns.  Everything else — virtual
channels, deep buffers, preloads, uncacheable routing, idle fault
controllers — runs flat, and every golden-digest scenario reproduces
its exact digest under either core (CI-gated).

Routing decisions compile lazily into a :class:`CompiledRoutes` that
every flat simulator of one ``(topology, routing)`` key shares by
reference (the sweep runtime keeps one per warm context), so a key's
table is computed once per process however many points run on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.sim.config import SimulationConfig
from repro.sim.engine import RoutingError, WormholeSimulator
from repro.sim.ids import ChannelIndex
from repro.sim.packet import Packet
from repro.sim.resources import ChannelState
from repro.sim.stats import StatsCollector
from repro.sim.trace import TraceRecorder
from repro.topology.channels import Channel, NodeId
from repro.traffic.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.prewarm import WarmContext

__all__ = [
    "CompiledRoutes",
    "FlatCoreUnsupported",
    "FlatPacket",
    "FlatRouteTable",
    "FlatWormholeSimulator",
    "flat_unsupported_reason",
    "make_simulator",
]


class FlatCoreUnsupported(RuntimeError):
    """The requested configuration needs a feature the flat core lacks."""


def flat_unsupported_reason(resilience=None, obs=None) -> Optional[str]:
    """Why a configuration cannot run on the flat core (``None`` = it can).

    The flat core supports everything the object core does except:

    * a bound :class:`~repro.obs.metrics.MetricsCollector` — it samples
      live ``ChannelState`` objects every cycle, which the flat core
      does not maintain;
    * a :class:`~repro.resilience.controller.FaultController` with a
      non-empty schedule — fault events rebuild routing state mid-run.
      An *empty*-schedule controller is fine (its hooks never fire and
      are required to be bit-invisible).
    """
    if obs is not None:
        return "an observability collector samples live channel states"
    if resilience is not None and len(resilience.schedule.events) > 0:
        return "a fault schedule rebuilds routing state mid-run"
    return None


class FlatPacket(Packet):
    """A :class:`Packet` whose ``path`` holds dense channel ids.

    Adds the destination's node index (``dest_id``) so the routing hot
    path never touches node tuples, and ``occ_bits`` — the occupancy
    bitmask used by the capacity-1 single-lane mover (bit *i* is the
    buffer fill of ``path[i]``).  Configurations outside that regime
    keep using the inherited ``occupancy`` list.
    """

    __slots__ = ("dest_id", "occ_bits")

    def __init__(
        self, pid: int, src: NodeId, dest: NodeId, size: int,
        create_time: float,
    ):
        super().__init__(pid, src, dest, size, create_time)
        self.dest_id = -1
        self.occ_bits = 0

    @property
    def flits_in_network(self) -> int:
        """Flits currently buffered in channels the packet holds."""
        if self.occupancy:
            return sum(self.occupancy)
        return self.occ_bits.bit_count()


class CompiledRoutes:
    """One ``(topology, routing)`` key's compiled program, shared by reference.

    Holds what every flat simulator of one key needs and none of them
    owns: the topology's :class:`~repro.sim.ids.ChannelIndex` and the
    routing decisions compiled to id tuples.  For an algorithm that
    provably ignores the arrival channel the table is one dense list
    indexed by ``node_index * N + dest_index`` (``None`` marks an
    uncompiled entry — an empty tuple is a valid "no route" answer);
    in-channel-sensitive algorithms use an int-keyed dict instead:
    ``node * N + dest`` for injection arrivals, ``N*N + in_cid * N +
    dest`` otherwise.  An uncacheable algorithm has neither table (its
    simulators route live and share only the index).

    Entries are filled lazily, straight from ``routing.route``, by
    whichever simulator first needs them.  ``route`` is pure for a
    cacheable algorithm, so an entry is the same whoever computed it
    and a warmed run is bit-identical to a cold one — the same argument
    that makes the object core's shared ``route_source`` safe.
    """

    __slots__ = ("routing", "index", "dense", "bykey", "filled")

    def __init__(self, routing: RoutingAlgorithm):
        self.routing = routing
        self.index = ChannelIndex(routing.topology)
        self.dense: Optional[List[Optional[Tuple[int, ...]]]] = None
        self.bykey: Optional[Dict[int, Tuple[int, ...]]] = None
        self.filled = 0
        if getattr(routing, "cacheable", True):
            if getattr(routing, "uses_in_channel", True):
                self.bykey = {}
            else:
                self.dense = [None] * (self.index.num_nodes ** 2)

    def fill_dense(self, key: int, node_idx: int, dest_idx: int) -> tuple:
        index = self.index
        cid = index.cid
        resolved = tuple(
            cid[channel]
            for channel in self.routing.route(
                None, index.nodes[node_idx], index.nodes[dest_idx]
            )
        )
        assert self.dense is not None
        self.dense[key] = resolved
        self.filled += 1
        return resolved

    def fill_keyed(
        self, key: int, front: int, node_idx: int, dest_idx: int
    ) -> tuple:
        index = self.index
        in_channel = index.channel_of[front] if front < index.inj_base else None
        cid = index.cid
        resolved = tuple(
            cid[channel]
            for channel in self.routing.route(
                in_channel, index.nodes[node_idx], index.nodes[dest_idx]
            )
        )
        assert self.bykey is not None
        self.bykey[key] = resolved
        self.filled += 1
        return resolved

    def __len__(self) -> int:
        return self.filled

    def __repr__(self) -> str:
        return f"CompiledRoutes({self.routing.name}, entries={self.filled})"


class FlatRouteTable:
    """One simulator's view of a :class:`CompiledRoutes`, with its own counters.

    ``dense`` / ``bykey`` alias the shared tables; the counters are this
    simulator's alone, so runs sharing a table never see each other's
    lookups: ``hits`` are answers the compiled table already held
    (whoever compiled them), ``misses`` the entries this simulator had
    to compute, and ``prefilled_entries`` what the shared table held
    when this simulator was built.
    """

    __slots__ = ("compiled", "dense", "bykey", "hits", "misses",
                 "prefilled_entries")

    def __init__(self, compiled: CompiledRoutes):
        self.compiled = compiled
        self.dense = compiled.dense
        self.bykey = compiled.bykey
        self.hits = 0
        self.misses = 0
        self.prefilled_entries = compiled.filled

    def __len__(self) -> int:
        return self.compiled.filled

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without computing a route."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"FlatRouteTable({self.compiled.routing.name}, "
            f"entries={len(self)}, hits={self.hits}, misses={self.misses})"
        )


class FlatWormholeSimulator(WormholeSimulator):
    """The wormhole engine on the flat integer-indexed core.

    Construction compiles the topology into a
    :class:`~repro.sim.ids.ChannelIndex` and replaces the per-channel
    ``ChannelState`` objects with parallel arrays; the inherited
    :meth:`~repro.sim.engine.WormholeSimulator.run` loop then drives
    the overridden flat phases.  Every override preserves the object
    core's exact event order, RNG draw order, and tie-breaks, so
    results, traces, and digests are bit-identical (golden-gated).

    Raises:
        FlatCoreUnsupported: when the configuration needs a feature the
            flat core does not model (see
            :func:`flat_unsupported_reason`); :func:`make_simulator`
            checks first and builds the object core instead.
    """

    core = "flat"

    def __init__(
        self,
        routing: RoutingAlgorithm,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        preload: Optional[List[Tuple[NodeId, NodeId, int, float]]] = None,
        trace: Optional[TraceRecorder] = None,
        resilience=None,
        obs=None,
        compiled_routes: Optional[CompiledRoutes] = None,
    ):
        """
        Args:
            compiled_routes: the key's shared :class:`CompiledRoutes`
                (see :class:`repro.analysis.prewarm.WarmContext`); must
                have been compiled for this very ``routing`` instance.
                Omitted, the simulator compiles a private one.

        Other arguments match :class:`WormholeSimulator`.
        """
        reason = flat_unsupported_reason(resilience=resilience, obs=obs)
        if reason is not None:
            raise FlatCoreUnsupported(reason)
        if compiled_routes is None:
            compiled_routes = CompiledRoutes(routing)
        elif compiled_routes.routing is not routing:
            raise ValueError(
                f"compiled routes belong to another routing instance "
                f"({compiled_routes.routing.name!r}), not this "
                f"{routing.name!r}"
            )
        super().__init__(
            routing, workload, config, preload=preload, trace=trace,
            resilience=resilience, obs=obs,
        )
        index = compiled_routes.index
        self._index = index
        total = index.total_ids
        num_nodes = index.num_nodes
        # Parallel resource arrays (the struct-of-arrays core).  There
        # is no shared count array: wormhole ownership is exclusive, so
        # a held channel's fill is the owner's own occupancy entry.
        self._owners: List[Optional[FlatPacket]] = [None] * total
        self._wake_flat: List[list] = [[] for _ in range(total)]
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
        src_of_node = [-1] * num_nodes
        for src_index, source in enumerate(self._sources):
            src_of_node[node_id[source.node]] = src_index
        self._src_of_node = src_of_node
        # One preallocated (ejection_id,) tuple per node: the most
        # common candidate set, allocation-free.
        ej_base = index.ej_base
        self._ej_tuples = [(ej_base + i,) for i in range(num_nodes)]
        # Output-policy ranking keys densified to ints: equal keys map
        # to equal ints and order is preserved, so min() over free
        # candidates (ties to the earliest) grants identically.
        ranking = getattr(self.config.output_policy, "ranking", None)
        self._rank_flat: Optional[List[int]] = None
        if ranking is not None:
            keys = [ranking(channel) for channel in index.channels]
            dense_rank = {key: pos for pos, key in enumerate(sorted(set(keys)))}
            self._rank_flat = [dense_rank[key] for key in keys]
        # Compiled routing table.  The object core's RouteCache (built
        # by super().__init__) is replaced wholesale; uncacheable
        # algorithms route live with id conversion at the call site.
        self._flat_routes: Optional[FlatRouteTable] = None
        if compiled_routes.dense is not None or compiled_routes.bykey is not None:
            self._flat_routes = FlatRouteTable(compiled_routes)
        self._route_cache = None
        # Object-state mirror for cold consumers, built on first use.
        self._state_list: Optional[List[ChannelState]] = None

    # ------------------------------------------------------------------
    # Cold-path object views

    def _states_by_id(self) -> List[ChannelState]:
        states = self._state_list
        if states is None:
            index = self._index
            states = [
                self._net_states[channel] for channel in index.channels
            ]
            states += [self._inj_states[node] for node in index.nodes]
            states += [self._ej_states[node] for node in index.nodes]
            self._state_list = states
        return states

    def _sync_states(self) -> None:
        """Project the flat arrays back onto the ChannelState mirror."""
        states = self._states_by_id()
        for state in states:
            state.count = 0
            state.owner = None
        bitocc = self._bitocc
        for packet in self._active:
            if bitocc:
                bits = packet.occ_bits
                for pos, ident in enumerate(packet.path):
                    state = states[ident]
                    state.owner = packet
                    state.count = (bits >> pos) & 1
            else:
                for ident, fill in zip(packet.path, packet.occupancy):
                    state = states[ident]
                    state.owner = packet
                    state.count = fill

    @property
    def network_channel_states(self) -> Dict[Channel, ChannelState]:
        """The per-channel resource table, synchronized on demand.

        The flat core does not maintain ``ChannelState`` objects during
        the run; reading this property reconstructs counts and owners
        from the live flat arrays (read-only, like the object core's).
        """
        self._sync_states()
        return self._net_states

    def occupancy_snapshot(self) -> int:
        """Total flits currently buffered in the network (for tests)."""
        if self._bitocc:
            return sum(p.occ_bits.bit_count() for p in self._active)
        return sum(sum(p.occupancy) for p in self._active)

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
    def route_cache(self) -> Optional[FlatRouteTable]:
        """The compiled routing table, or ``None`` for uncacheable
        algorithms (reported by ``repro bench``)."""
        return self._flat_routes

    # ------------------------------------------------------------------
    # Phase 0: injection-channel allocation

    def _start_packets(self) -> None:
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
            packet = FlatPacket(
                self._next_pid, source.node, dest, size, create_time
            )
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

    def _flat_candidates(self, packet: FlatPacket, front: int) -> tuple:
        """Candidate ids for one header (cold: once per router visit)."""
        dest_idx = packet.dest_id
        node_idx = self._dest_ids[front]
        if node_idx == dest_idx:
            return self._ej_tuples[node_idx]
        table = self._flat_routes
        num_nodes = self._index.num_nodes
        if table is None:
            in_channel = (
                self._channel_of[front] if front < self._inj_base else None
            )
            node = self._index.nodes[node_idx]
            cid = self._index.cid
            candidates = tuple(
                cid[channel]
                for channel in self._active_routing.route(
                    in_channel, node, packet.dest
                )
            )
        else:
            dense = table.dense
            if dense is not None:
                key = node_idx * num_nodes + dest_idx
                cached = dense[key]
                if cached is not None:
                    table.hits += 1
                    candidates = cached
                else:
                    table.misses += 1
                    candidates = table.compiled.fill_dense(
                        key, node_idx, dest_idx
                    )
            else:
                if front >= self._inj_base:
                    key = node_idx * num_nodes + dest_idx
                else:
                    key = (
                        num_nodes * num_nodes + front * num_nodes + dest_idx
                    )
                assert table.bykey is not None
                cached = table.bykey.get(key)
                if cached is not None:
                    table.hits += 1
                    candidates = cached
                else:
                    table.misses += 1
                    candidates = table.compiled.fill_keyed(
                        key, front, node_idx, dest_idx
                    )
        if not candidates and self._strict_routes:
            self._no_route(packet, front, node_idx)
        return candidates

    def _no_route(self, packet: FlatPacket, front: int, node_idx: int) -> None:
        """Raise the object core's exact no-route error (cold path)."""
        in_channel = (
            self._channel_of[front] if front < self._inj_base else None
        )
        node = self._index.nodes[node_idx]
        raise RoutingError(
            f"{self.routing.name} offered no route for {packet!r} at "
            f"{node} (arrived via {in_channel})"
        )

    def _candidates_for(self, packet: Packet) -> tuple:
        """Flat candidates (ids, not states) for one waiting header."""
        return self._flat_candidates(packet, packet.path[-1])

    def _allocate(self) -> None:
        # Identical control flow to the object core's _allocate (see
        # engine.py for the ordering rationale); only the per-candidate
        # representation changed: ids + parallel arrays instead of
        # ChannelState objects.
        from repro.sim.engine import _arrival_key, _merge_waiters, _pid_key

        waiters = self._waiters
        policy = self.config.input_policy
        new = self._new_waiters
        park = self._park_enabled
        woken = self._woken
        obs = self._obs
        if woken:
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
        ranks = self._rank_flat
        owners = self._owners
        wake_flat = self._wake_flat
        ej_base = self._ej_base
        channel_of = self._channel_of
        node_of = self._node_of
        bitocc = self._bitocc
        dest_ids = self._dest_ids
        ej_tuples = self._ej_tuples
        num_nodes = self._index.num_nodes
        strict = self._strict_routes
        rt = self._flat_routes
        rt_dense = rt.dense if rt is not None else None
        flat_candidates = self._flat_candidates
        still_waiting: List[Packet] = []
        append_waiting = still_waiting.append
        for packet in order:
            if cycle - packet.waiting_since < delay:
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
                    if rt_dense is not None:
                        candidates = rt_dense[
                            node_idx * num_nodes + packet.dest_id
                        ]
                        if candidates is not None:
                            rt.hits += 1
                        else:
                            candidates = flat_candidates(packet, front)
                    else:
                        candidates = flat_candidates(packet, front)
                    if not candidates:
                        if strict:
                            self._no_route(packet, front, node_idx)
                        # Only reachable with a fault controller bound.
                        self._recover(packet, in_allocation=True)
                        continue
                packet.pending_candidates = candidates
            if len(candidates) == 1:
                chosen = candidates[0]
                if owners[chosen] is not None:
                    if park:
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        wake_flat[chosen].append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
            else:
                free = [c for c in candidates if owners[c] is None]
                if not free:
                    if park:
                        token = packet.park_token + 1
                        packet.park_token = token
                        packet.parked = True
                        for c in candidates:
                            wake_flat[c].append((packet, token))
                        if obs is not None:
                            obs.park_events += 1
                    else:
                        append_waiting(packet)
                    continue
                if len(free) == 1:
                    chosen = free[0]
                elif ranks is not None:
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

    def _move(self, packet: FlatPacket, stats: StatsCollector) -> bool:
        # The general mover (deep buffers and/or virtual channels):
        # occupancy lists over ids, physical-link arbitration over
        # dense link ids.  Mirrors engine._move boundary for boundary.
        path = packet.path
        occ = packet.occupancy
        cycle = self.cycle
        moves = 0
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
        if packet.remaining_to_inject > 0 and occ[0] < capacity:
            occ[0] += 1
            packet.remaining_to_inject -= 1
            moves += 1
            if packet.inject_cycle is None:
                packet.inject_cycle = cycle
                self._header_arrived(packet)
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

    def _move1(self, packet: FlatPacket, stats: StatsCollector) -> bool:
        """Bit-parallel mover for single-flit buffers on a single lane.

        The packet's occupancy is the bitmask ``occ_bits`` (bit *i* =
        fill of ``path[i]``).  The reference front-first boundary pass
        advances exactly the maximal runs of flits that are not blocked
        at the front: the run containing the front slot (if occupied)
        cannot move, and every other maximal run has an empty slot
        directly above it and shifts up by one.  With ``movers`` = the
        occupied bits below the highest empty slot, that whole pass is
        ``bits += movers`` — the shifted runs land exactly on the bits
        vacated plus the hole above each run.
        """
        path = packet.path
        bits = packet.occ_bits
        held = len(path)
        front = held - 1
        moves = 0
        if packet.route_complete and bits >> front:
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
                    and not packet.route_complete
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
            return True
        if not packet.route_complete:
            packet.stalled = True
        return False

    def _released(self, ident: int) -> None:
        inj_base = self._inj_base
        if inj_base <= ident < self._ej_base:
            self._inj_candidates.add(self._src_of_node[ident - inj_base])
            return
        wake = self._wake_flat[ident]
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

    def _finish(self, packet: FlatPacket, stats: StatsCollector) -> None:
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

    def _recover(self, packet: FlatPacket, in_allocation: bool = False) -> None:
        # Reachable only with a fault controller bound (and, on the
        # flat core, only via an empty candidate set — fault events are
        # gated to the object core).  Mirrors engine._recover.
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
        packet.park_token += 1
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

    The core is read off the input, never chosen by the caller: the
    flat core whenever it can model the run, the object core otherwise
    (see :func:`flat_unsupported_reason`).  The returned simulator's
    ``core`` attribute says which one was built and its
    ``core_fallback_reason`` why it is not the flat one (``None`` when
    it is).

    Args:
        warm: the warm context of the run's ``(topology, routing)`` key
            (:mod:`repro.analysis.prewarm`), whose ``routing`` must be
            this ``routing``.  The factory takes from it only the shared
            routing state the chosen core uses — the
            :class:`CompiledRoutes` for the flat core, the raw route
            source for the object core — so the other is never built.

    Other arguments match :class:`WormholeSimulator`.
    """
    reason = flat_unsupported_reason(resilience=resilience, obs=obs)
    if reason is None:
        return FlatWormholeSimulator(
            routing, workload, config, preload=preload, trace=trace,
            resilience=resilience, obs=obs,
            compiled_routes=warm.compiled_routes if warm is not None else None,
        )
    simulator = WormholeSimulator(
        routing, workload, config, preload=preload, trace=trace,
        resilience=resilience, obs=obs,
        route_source=warm.route_source if warm is not None else None,
    )
    simulator.core_fallback_reason = reason
    return simulator
