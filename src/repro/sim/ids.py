"""Dense integer encoding of one topology's simulation resources.

The engine (:mod:`repro.sim.engine`) keeps no per-channel Python
objects: its state is parallel arrays indexed by a *channel id*, and
routing decisions are tuples of ids.  This module owns the id layout
(:class:`ChannelIndex`), derived purely from the topology's canonical
iteration order so every process reconstructs the same encoding, and
the routing decisions compiled against it (:class:`CompiledRoutes`,
shared per ``(topology, routing)`` key, which a simulator routes on
directly):

* network channels get ids ``0 .. C-1`` in ``topology.channels()`` order;
* injection channels get ids ``C + node_index`` and ejection channels
  ``C + N + node_index``, with ``node_index`` taken from
  ``topology.nodes()`` order — a channel's kind is derivable from its
  id range alone.

Physical links (for virtual-channel lane arbitration) are numbered in
first-lane-seen order, one id per ``(src, dst)`` pair.

The relation a table holds is read on ids too: its closure
(:class:`RouteClosure`, what the provers read), its shortest-path
counts (:func:`shortest_path_counts`, the paper's degree of
adaptiveness ``S``) and its reach (:class:`ReachRelation`): per channel
id, a bitmask over destinations, so one fixpoint over ids answers for
every destination at once.  A turn table's closure and reach are read
off its router's compile on the same ids, with no ``route`` call per
state.  Reach decides the table's connectivity and
its restriction after a fault (:meth:`CompiledRoutes.reach_restricted`,
the one rule every fault relation follows).  A fault event costs what it
changes: the fixpoint is one pass over ids, only the entries at the
nodes a dropped id leaves are rewritten, and a restriction check
compares only the entries that are not the parent's own tuples.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.channel_graph import RouteFn
from repro.core.digraph import mask_ids
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = [
    "ChannelIndex", "CompiledRoutes", "ReachRelation", "RouteClosure", "shortest_path_counts",
]


#: A router's offers from one state, as ``(out id, destination mask)``
#: pairs (:data:`repro.routing.turn_table.Offers`).
_Offers = Tuple[Tuple[int, int], ...]

_BINARY = bytes.maketrans(b"01", b"\x00\x01")


def _keys(mask: int, base: int, width: int) -> Iterable[int]:
    """``base + bit`` for every bit below ``width`` set in ``mask``,
    ascending (picked out in C, by its bits as bytes)."""
    members = format(mask, f"0{width}b")[::-1].encode().translate(_BINARY)
    return compress(range(base, base + width), members)


def _entries(
    offers: Iterable[Tuple[int, int]], dests: int
) -> List[Tuple[int, Tuple[int, ...]]]:
    """The distinct entries ``offers`` make over ``dests``: ``(mask,
    entry)`` pairs, where ``entry`` is the outs whose mask holds each
    destination of ``mask``, in offer order."""
    groups: List[Tuple[int, Tuple[int, ...]]] = [(dests, ())]
    for out, offered in offers:
        split = []
        for group, entry in groups:
            inside = group & offered
            if inside:
                split.append((inside, entry + (out,)))
            if inside != group:
                split.append((group ^ inside, entry))
        groups = split
    return groups


def _transpose(masks: Sequence[int], width: int) -> List[int]:
    """Bit ``i`` of result ``b`` is bit ``b`` of ``masks[i]``, for every
    ``b`` below ``width``: the bit matrix transposed as text, one row per
    mask read off column by column (``format`` puts the highest bit
    first)."""
    if not masks:
        return [0] * width
    rows = [format(mask, f"0{width}b") for mask in masks]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)][::-1]


class ChannelIndex:
    """The id tables for one topology (immutable after construction).

    Attributes:
        nodes: topology nodes in canonical order (``node_id`` inverse).
        channels: network channels in canonical order (``cid`` inverse).
        node_id: node -> dense node index.
        cid: network channel -> dense channel id.
        num_nodes, num_channels: table sizes (``N``, ``C``).
        inj_base: first injection id (``C``); node ``i`` injects on
            ``inj_base + i``.
        ej_base: first ejection id (``C + N``); node ``i`` ejects on
            ``ej_base + i``.
        total_ids: ``C + 2N``, the length of every parallel array.
        dest_node_id: id -> node index a flit is at after crossing the
            channel (a network channel's ``dst``; the owning node for
            injection and ejection channels).
        channel_of: id -> the topology :class:`Channel`, or ``None`` for
            injection/ejection ids.
        node_of: id -> the node the id is anchored at (``dst`` for
            network channels; the served node for injection/ejection).
        phys_of: network channel id -> dense physical-link id (lanes of
            one ``(src, dst)`` link share it).
        num_physical: distinct physical links.
        multilane: whether any channel has a nonzero lane.
    """

    __slots__ = (
        "nodes", "channels", "node_id", "cid", "num_nodes", "num_channels",
        "inj_base", "ej_base", "total_ids", "dest_node_id", "channel_of",
        "node_of", "phys_of", "num_physical", "multilane", "_node_links",
    )

    def __init__(self, topology: Topology) -> None:
        nodes: List[NodeId] = list(topology.nodes())
        channels: List[Channel] = list(topology.channels())
        self.nodes = nodes
        self.channels = channels
        self.node_id: Dict[NodeId, int] = {
            node: index for index, node in enumerate(nodes)
        }
        self.cid: Dict[Channel, int] = {
            channel: index for index, channel in enumerate(channels)
        }
        num_channels = len(channels)
        num_nodes = len(nodes)
        self.num_channels = num_channels
        self.num_nodes = num_nodes
        self.inj_base = num_channels
        self.ej_base = num_channels + num_nodes
        self.total_ids = num_channels + 2 * num_nodes
        node_id = self.node_id
        node_range = list(range(num_nodes))
        self.dest_node_id: List[int] = [
            node_id[channel.dst] for channel in channels
        ] + node_range + node_range
        self.channel_of: List[Optional[Channel]] = (
            list(channels) + [None] * (2 * num_nodes)
        )
        self.node_of: List[NodeId] = [
            channel.dst for channel in channels
        ] + nodes + nodes
        physical: Dict[Tuple[NodeId, NodeId], int] = {}
        phys_of: List[int] = []
        for channel in channels:
            key = (channel.src, channel.dst)
            link = physical.get(key)
            if link is None:
                link = len(physical)
                physical[key] = link
            phys_of.append(link)
        self.phys_of = phys_of
        self.num_physical = len(physical)
        self.multilane = any(channel.lane != 0 for channel in channels)
        self._node_links: Optional[Tuple[List[int], List[List[int]]]] = None

    def node_links(self) -> Tuple[List[int], List[List[int]]]:
        """``(src_node_id, arriving)``: network channel id -> the node
        index it leaves, and node index -> the network channel ids
        entering it, ascending.  Built by the first call and kept: the
        restrictions and the reach relation read them, a plain run never."""
        links = self._node_links
        if links is None:
            node_id = self.node_id
            arriving: List[List[int]] = [[] for _ in self.nodes]
            for ident, head in enumerate(self.dest_node_id[:self.num_channels]):
                arriving[head].append(ident)
            links = self._node_links = (
                [node_id[channel.src] for channel in self.channels], arriving
            )
        return links

    def kind_of(self, ident: int) -> str:
        """The resource kind of one id (diagnostics; not a hot path)."""
        if ident < self.inj_base:
            return "network"
        if ident < self.ej_base:
            return "injection"
        return "ejection"

    def __repr__(self) -> str:
        return (
            f"ChannelIndex(C={self.num_channels}, N={self.num_nodes}, "
            f"multilane={self.multilane})"
        )


class CompiledRoutes:
    """One ``(topology, routing)`` key's compiled program, shared by reference.

    Holds what every simulator of one key needs and none of them owns:
    the topology's :class:`ChannelIndex` and the routing decisions
    compiled to id tuples.  For an algorithm that provably ignores the
    arrival channel the table is one dense list indexed by
    ``node_index * N + dest_index`` (``None`` marks an uncompiled entry
    — an empty tuple is a valid "no route" answer); in-channel-sensitive
    algorithms use an int-keyed dict instead: ``node * N + dest`` for
    injection arrivals, ``N*N + in_cid * N + dest`` otherwise.

    Entries are filled lazily, straight from ``routing.route``, by
    whichever simulator first needs them — or all at once by
    :meth:`closure`, which the provers read, off the routing's own
    compile on ids when it keeps one (a turn table's).  ``route`` is a
    pure function of its arguments and the Channel view of that compile,
    so an entry is the same whoever computed it and a warmed run is
    bit-identical to a cold one.  A table built by
    :meth:`restricted` arrives holding every entry, read off the table
    it restricts, and never fills one.

    Args:
        routing: the algorithm whose decisions are compiled (or a bare
            ``RouteFn`` callable, which needs ``index``).
        index: the id layout to compile against; the routing's own
            topology's by default.

    Attributes:
        closed: the ``(succ, reached)`` masks :meth:`closure` found, so
            every realizable state is compiled (``None`` before).
        parent: the table :meth:`restricted` read this one off
            (``None`` for a compiled table).
        numbering: channel id -> rank, strictly increasing along every
            dependency of this table's closure, once
            :func:`repro.verify.certify_table` has proved it (``None``
            before).  It certifies every restriction of the table too.
        reverse: the closure's relation reversed and read bit-parallel
            over destinations (:class:`ReachRelation`), kept by the first
            :meth:`reach_relation` of this table (``None`` before): the
            fault rule and the routable fraction read it.  The
            connectivity prover reads it when it is kept, and otherwise
            builds one it does not keep.
    """

    __slots__ = ("routing", "route", "index", "dense", "bykey", "filled",
                 "closed", "parent", "numbering", "reverse")

    def __init__(
        self,
        routing: Union[RoutingAlgorithm, RouteFn],
        index: Optional[ChannelIndex] = None,
    ):
        self.routing = routing
        self.route: RouteFn = getattr(routing, "route", routing)
        if index is None:
            index = ChannelIndex(routing.topology)  # type: ignore[union-attr]
        self.index = index
        self.dense: Optional[List[Optional[Tuple[int, ...]]]] = None
        self.bykey: Optional[Dict[int, Tuple[int, ...]]] = None
        self.filled = 0
        self.closed: Optional[Tuple[List[int], List[int]]] = None
        self.parent: Optional[CompiledRoutes] = None
        self.numbering: Optional[List[int]] = None
        self.reverse: Optional[ReachRelation] = None
        if getattr(routing, "uses_in_channel", True):
            self.bykey = {}
        else:
            self.dense = [None] * (self.index.num_nodes ** 2)

    @classmethod
    def restricted(
        cls,
        parent: "CompiledRoutes",
        dropped: Sequence[AbstractSet[int]],
    ) -> "CompiledRoutes":
        """``parent``'s relation with ids removed, per destination.

        The entry for ``(front, dest)`` is ``parent``'s with the ids in
        ``dropped[dest]`` removed, in the same order; a fault run's
        degraded tables are such restrictions of its healthy one (see
        :func:`repro.resilience.controller.degrade`).  ``parent``'s
        closure is taken once.  An entry offers only channels that leave
        its node, so a dropped id can change only the entries at the node
        it leaves: those are rewritten, and every other entry is
        ``parent``'s own tuple, shared.  Every state reachable under the
        restriction is then held, since its entries only narrow
        ``parent``'s, so the derived table asks no routing anything: it
        names ``parent.routing`` (what a proof names), and a lookup
        outside ``parent``'s closure raises :class:`LookupError` instead
        of filling a healthy entry.  The derived table keeps ``parent``
        as its :attr:`parent`, so :meth:`is_restriction` can check it.

        Args:
            parent: the table to restrict; the result shares its index
                and table layout.
            dropped: destination index -> the network ids its entries
                lose.
        """
        source, _ = parent.index.node_links()
        num_nodes = parent.index.num_nodes
        losses: Dict[int, Set[int]] = {}
        for dest_idx, lost in enumerate(dropped):
            for ident in lost:
                losses.setdefault(source[ident] * num_nodes + dest_idx, set()).add(ident)
        return cls._rewritten(parent, losses)

    @classmethod
    def _rewritten(
        cls, parent: "CompiledRoutes", losses: Mapping[int, AbstractSet[int]]
    ) -> "CompiledRoutes":
        """:meth:`restricted`, given the ids lost per ``node * N + dest``."""
        derived = cls(parent.routing, parent.index)
        derived.parent = parent
        index = parent.index
        num_nodes = index.num_nodes
        if parent.closed is None:
            parent.closure()

        # Names the routing, not ``derived``: a reference back to the
        # table would make it a cycle that outlives the fault event.
        name = getattr(parent.routing, "name", parent.routing)

        def outside_closure(
            in_channel: Optional[Channel], node: NodeId, dest: NodeId
        ) -> List[Channel]:
            raise LookupError(
                f"the restricted {name} table holds no entry for a header at "
                f"{node} bound for {dest} (arrived via {in_channel}): the state "
                f"is outside the closure of the table it restricts"
            )

        derived.route = outside_closure
        derived.filled = parent.filled
        if parent.dense is not None:
            dense = parent.dense[:]
            for key, lost in losses.items():
                entry = dense[key]
                if entry and not lost.isdisjoint(entry):
                    dense[key] = tuple(o for o in entry if o not in lost)
            derived.dense, derived.bykey = dense, None
        else:
            assert parent.bykey is not None
            bykey = dict(parent.bykey)
            entry_at = bykey.get
            arrivals = num_nodes * num_nodes
            _, arriving = index.node_links()
            # Per node, the key of each arrival into it, less ``dest``.
            bases = [[arrivals + front * num_nodes for front in fronts]
                     for fronts in arriving]
            for key, lost in losses.items():
                node, dest_idx = divmod(key, num_nodes)
                # The injection at the node, then every arrival into it.
                for at in [key, *[base + dest_idx for base in bases[node]]]:
                    entry = entry_at(at)
                    if entry and not lost.isdisjoint(entry):
                        bykey[at] = tuple(o for o in entry if o not in lost)
            derived.dense, derived.bykey = None, bykey
        return derived

    @classmethod
    def reach_restricted(
        cls, parent: "CompiledRoutes", failed: Iterable[int]
    ) -> "CompiledRoutes":
        """:meth:`restricted` by the reach rule: drop the ``failed`` ids,
        then every id whose holder can no longer reach the destination.

        One :meth:`ReachRelation.fixpoint` over ``parent``'s relation
        (:meth:`reach_relation`, built once), for every destination at
        once, with the failed ids blocked.  Reach is the least fixpoint:
        a live cycle that cannot reach the destination is dropped too.
        """
        relation = parent.reach_relation()
        live = relation.fixpoint(relation.accepting, frozenset(failed))
        source, _ = parent.index.node_links()
        num_nodes = parent.index.num_nodes
        losses: Dict[int, Set[int]] = {}
        for ident, (held, kept) in enumerate(zip(relation.held, live)):
            lost = held & ~kept
            if lost:
                base = source[ident] * num_nodes
                for dest_idx in mask_ids(lost):
                    losses.setdefault(base + dest_idx, set()).add(ident)
        return cls._rewritten(parent, losses)

    def reach_relation(self) -> "ReachRelation":
        """This table's :class:`ReachRelation`, built from its closure
        by the first call and kept on :attr:`reverse`."""
        relation = self.reverse
        if relation is None:
            if self.closed is not None:
                closure = RouteClosure(self, *self.closed)
            else:
                closure = self.closure()
            relation = self.reverse = ReachRelation(closure)
        return relation

    def is_restriction(self) -> bool:
        """Whether this table is a restriction of its :attr:`parent`.

        Checked entry by entry: every entry this table holds is its
        parent's entry for the same state, or a subset of it, on the
        same index.  A state reachable here is then reachable in the
        parent, so this table's dependencies are some of the parent's
        and the parent's :attr:`numbering` certifies them.  An entry
        that is its parent's own tuple passes at once, so an identity
        screen picks out the rest, and only those are compared.
        """
        parent = self.parent
        if parent is None or parent.index is not self.index:
            return False
        entries: Iterable[Optional[tuple]]
        held: Iterable[Optional[tuple]]
        if parent.dense is not None:
            if self.dense is None or len(self.dense) != len(parent.dense):
                return False
            entries, held = self.dense, parent.dense
        else:
            if self.bykey is None or parent.bykey is None:
                return False
            entries = self.bykey.values()
            held = list(map(parent.bykey.get, self.bykey))
        changed = compress(zip(entries, held), map(is_not, entries, held))
        return all(
            entry is None or (kept is not None and set(entry).issubset(kept))
            for entry, kept in changed
        )

    def lookup(self, front: int, dest_idx: int) -> tuple:
        """Candidate ids for a header that crossed ``front`` (an
        injection id at its source) bound for ``dest_idx``, compiled on
        first use."""
        index = self.index
        num_nodes = index.num_nodes
        node_idx = index.dest_node_id[front]
        dense = self.dense
        if dense is not None:
            key = node_idx * num_nodes + dest_idx
            cached = dense[key]
        else:
            bykey = self.bykey
            assert bykey is not None  # one of the two tables is always held
            if front >= index.inj_base:
                key = node_idx * num_nodes + dest_idx
            else:
                key = num_nodes * num_nodes + front * num_nodes + dest_idx
            cached = bykey.get(key)
        if cached is not None:
            return cached
        # A dense table's routing ignores the arrival channel.
        in_channel = None if dense is not None else index.channel_of[front]
        resolved = tuple(map(
            index.cid.__getitem__,
            self.route(in_channel, index.nodes[node_idx], index.nodes[dest_idx]),
        ))
        if dense is not None:
            dense[key] = resolved
        else:
            bykey[key] = resolved
        self.filled += 1
        return resolved

    def closure(self) -> "RouteClosure":
        """Every realizable routing state, compiled and related.

        Per destination, the forward closure from every source over the
        states ``(channel held, destination)`` a packet can actually be
        in — the exact channel dependency relation of Dally and Seitz.
        Each visited state's decision lands in the table, so a simulator
        adopting this object routes those states without asking the
        algorithm again.

        A table compiled from a router that keeps its compile on these
        ids (a turn table, :meth:`_compiled_offers`) is closed on that
        compile, for every destination at once; any other table by a
        walk of its states, one :meth:`lookup` each.  Both leave the
        same masks, entries and :attr:`filled`.
        """
        compiled = self._compiled_offers()
        if compiled is None:
            succ, reached = self._walk()
        else:
            succ, reached = self._close(*compiled)
        self.closed = (succ, reached)
        return RouteClosure(self, succ, reached)

    def _compiled_offers(self) -> Optional[Tuple[Sequence[_Offers], Sequence[_Offers]]]:
        """The routing's compile behind this table's entries, when there
        is one: per node index the ``(out, mask)`` offers at injection,
        and per network id those its arrivals are routed by (the node's
        own, in a dense table).  ``None`` for a table :meth:`restricted`
        derived, whose entries are narrower than its routing's, for a
        routing that keeps no compile, and off the routing's own ids."""
        offers_on = getattr(self.routing, "offers_on", None)
        if self.parent is not None or offers_on is None:
            return None
        compiled = offers_on(self.index)
        if compiled is None:
            return None
        injections, arrivals = compiled
        if self.dense is not None:
            head = self.index.dest_node_id
            return injections, [injections[head[ident]] for ident in range(self.index.num_channels)]
        return injections, arrivals

    def _close(
        self, injections: Sequence[_Offers], arrivals: Sequence[_Offers]
    ) -> Tuple[List[int], List[int]]:
        """:meth:`closure` on the routing's compile: ``held`` (per id, the
        destinations it is held for) as one forward fixpoint over every
        destination at once, then the masks and the entries read off it."""
        index = self.index
        num_nodes, num_channels = index.num_nodes, index.num_channels
        stop = [1 << node for node in index.dest_node_id[:num_channels]]
        # A packet injected at a node holds what it is offered there, bound
        # anywhere but that node; an arrival passes on what it holds short
        # of its head.  A worklist takes that to the least fixpoint.  A
        # turn table offers an output after an arrival for part of what it
        # offers it for at injection, so there the seeds are closed
        # already and each id is visited once.
        held = [0] * num_channels
        for node, offers in enumerate(injections):
            for out, mask in offers:
                held[out] |= mask & ~(1 << node)
        work = [ident for ident, mask in enumerate(held) if mask]
        while work:
            front = work.pop()
            passed = held[front] & ~stop[front]
            for out, mask in arrivals[front]:
                grown = held[out] | passed & mask
                if grown != held[out]:
                    held[out] = grown
                    work.append(out)

        succ = [0] * num_channels
        for front, offers in enumerate(arrivals):
            passed = held[front] & ~stop[front]
            if passed:
                for out, mask in offers:
                    if passed & mask:
                        succ[front] |= 1 << out
        # The entries, one shared tuple per distinct offer set: every
        # source state, and in a keyed table every in-flight one.
        everyone = (1 << num_nodes) - 1
        dense = self.dense
        if dense is not None:
            empty = dense.count(None)
            for node, offers in enumerate(injections):
                for dests, entry in _entries(offers, everyone & ~(1 << node)):
                    for key in _keys(dests, node * num_nodes, num_nodes):
                        dense[key] = entry
            self.filled += empty - dense.count(None)
        else:
            bykey = self.bykey
            assert bykey is not None
            size = len(bykey)
            for node, offers in enumerate(injections):
                for dests, entry in _entries(offers, everyone & ~(1 << node)):
                    bykey.update(zip(_keys(dests, node * num_nodes, num_nodes), repeat(entry)))
            arrivals_base = num_nodes * num_nodes
            for front, offers in enumerate(arrivals):
                passed = held[front] & ~stop[front]
                if passed:
                    base = arrivals_base + front * num_nodes
                    for dests, entry in _entries(offers, passed):
                        bykey.update(zip(_keys(dests, base, num_nodes), repeat(entry)))
            self.filled += len(bykey) - size
        return succ, _transpose(held, num_nodes)

    def _walk(self) -> Tuple[List[int], List[int]]:
        """:meth:`closure` by a walk per destination, one :meth:`lookup`
        per state."""
        index = self.index
        head = index.dest_node_id
        lookup = self.lookup
        bits = [1 << ident for ident in range(index.num_channels)]
        succ = [0] * index.num_channels
        reached_for: List[int] = []
        for dest in range(index.num_nodes):
            reached = 0
            frontier: List[int] = []
            for injection in range(index.inj_base, index.ej_base):
                if head[injection] == dest:
                    continue
                for out in lookup(injection, dest):
                    if not reached & bits[out]:
                        reached |= bits[out]
                        frontier.append(out)
            for front in frontier:  # grows as the closure advances
                if head[front] == dest:
                    continue
                for out in lookup(front, dest):
                    succ[front] |= bits[out]
                    if not reached & bits[out]:
                        reached |= bits[out]
                        frontier.append(out)
            reached_for.append(reached)
        return succ, reached_for

    def __len__(self) -> int:
        return self.filled

    def __repr__(self) -> str:
        name = getattr(self.routing, "name", self.routing)
        return f"CompiledRoutes({name}, entries={self.filled})"


class RouteClosure(NamedTuple):
    """What :meth:`CompiledRoutes.closure` found: the relation the provers
    and the static analyses read.

    Attributes:
        compiled: the table the closure filled; every decision behind
            the masks is an entry of it.
        succ: network channel id -> bitmask of the channel ids some
            packet holding it may request next (the exact channel
            dependency graph).
        reached: destination node index -> bitmask of the channel ids a
            packet bound there can hold.
    """

    compiled: CompiledRoutes
    succ: List[int]
    reached: List[int]


class ReachRelation:
    """A closed table's relation, bit-parallel over destinations.

    Bit ``d`` of every mask here stands for destination node index
    ``d``, so one pass over channel ids answers a reach question for
    every destination at once (:meth:`fixpoint`).  Built once per table
    from its closure (:meth:`CompiledRoutes.reach_relation`); the fault
    rule (:meth:`CompiledRoutes.reach_restricted`), the connectivity
    prover and :func:`repro.analysis.fault_tolerance.routable_fraction`
    read it.  The offers come from one of two sources: the routing's
    compile, for a table that closes on it (see
    :meth:`CompiledRoutes.closure`), or else the table's own entries.

    Attributes:
        held: network channel id -> the destinations a packet may hold
            it bound for (the closure's ``reached``, transposed).
        accepting: id -> its head's bit, when it is held bound there.
        offers: id -> ``(out, mask)`` per output it may request next,
            ascending by ``out``: the destinations its entry offers
            ``out`` for, when held.
        order: the ids every successor of which comes earlier, sinks
            first (Kahn's order of the relation over all destinations).
        feeders: each other id (on or behind a cycle) -> ``(front,
            mask)`` per predecessor among them.
    """

    __slots__ = ("held", "accepting", "offers", "order", "feeders")

    def __init__(self, closure: "RouteClosure") -> None:
        compiled = closure.compiled
        index = compiled.index
        num_channels, num_nodes = index.num_channels, index.num_nodes
        head = index.dest_node_id
        held = _transpose(closure.reached, num_channels)
        accepting = [mask & 1 << head[ident] for ident, mask in enumerate(held)]
        # Only states of the closure count, the arrival at the head's own
        # node not among them.
        transit = [mask & ~bit for mask, bit in zip(held, accepting)]
        outs_of: List[Dict[int, int]] = [{} for _ in range(num_channels)]
        compile = compiled._compiled_offers()
        if compile is not None:
            # The routing's compile: per arrival, each output's mask.
            _, routed_by = compile
            for front, offers in enumerate(routed_by):
                here = transit[front]
                if here:
                    outs = outs_of[front]
                    for out, mask in offers:
                        if mask & here:
                            outs[out] = outs.get(out, 0) | mask & here
        elif compiled.dense is not None:
            # Every arrival at a node is routed by the node's entry, and
            # an entry offers only channels that leave its node.
            source, arriving = index.node_links()
            offered = [0] * num_channels
            for key, entry in enumerate(compiled.dense):
                if entry:
                    bit = 1 << key % num_nodes
                    for out in entry:
                        offered[out] |= bit
            for out, mask in enumerate(offered):
                if mask:
                    for front in arriving[source[out]]:
                        if mask & transit[front]:
                            outs_of[front][out] = mask & transit[front]
        else:
            assert compiled.bykey is not None
            # Per arrival and entry, the destinations it is routed by
            # that entry for: one step per state, not one per output.
            routed: Dict[Tuple[int, tuple], int] = {}
            arrivals = num_nodes * num_nodes
            for key, entry in compiled.bykey.items():
                if key >= arrivals and entry:
                    front, dest_idx = divmod(key - arrivals, num_nodes)
                    state = (front, entry)
                    routed[state] = routed.get(state, 0) | 1 << dest_idx
            for (front, entry), mask in routed.items():
                mask &= transit[front]
                if mask:
                    outs = outs_of[front]
                    for out in entry:
                        outs[out] = outs.get(out, 0) | mask
        offers = [sorted(outs.items()) for outs in outs_of]
        into: List[List[Tuple[int, int]]] = [[] for _ in range(num_channels)]
        for front, outs in enumerate(offers):
            for out, mask in outs:
                into[out].append((front, mask))
        pending = [len(outs) for outs in offers]
        order = [ident for ident, left in enumerate(pending) if not left]
        for out in order:  # grows as ids lose their last pending successor
            for front, _ in into[out]:
                pending[front] -= 1
                if not pending[front]:
                    order.append(front)
        self.held = held
        self.accepting = accepting
        self.offers = offers
        self.order = order
        self.feeders = {
            ident: [(front, mask) for front, mask in into[ident] if pending[front]]
            for ident, left in enumerate(pending) if left
        }

    def fixpoint(
        self, seeds: Sequence[int], blocked: AbstractSet[int] = frozenset()
    ) -> List[int]:
        """Per id, the destinations ``d`` for which some walk from it over
        offered outputs, never entering a ``blocked`` id, ends at an id
        with bit ``d`` in ``seeds``: the least fixpoint of ``found[front]
        = seeds[front] | OR(found[out] & mask)`` over :attr:`offers`.
        A blocked id finds nothing.

        The :attr:`order` ids are settled in one pass, each once; the
        ids on or behind a cycle then finish by a worklist.  A worklist
        over every id instead revisits each as its mask grows: on
        mesh:16x16 (2-vCPU host) 4-16 ms a fixpoint against 0.3-0.8 ms.
        """
        found = [0] * len(self.held)
        offers = self.offers
        feeders = self.feeders
        for front in [*self.order, *feeders]:
            if front not in blocked:
                mask = seeds[front]
                for out, offered in offers[front]:
                    mask |= found[out] & offered
                found[front] = mask
        work = [ident for ident in feeders if ident not in blocked]
        while work:
            out = work.pop()
            mask = found[out]
            for front, offered in feeders[out]:
                grown = found[front] | mask & offered
                if grown != found[front] and front not in blocked:
                    found[front] = grown
                    work.append(front)
        return found

    def dead_ends(self) -> List[int]:
        """Per id, the destinations it is held for short of arrival while
        its entry offers no output."""
        dead = []
        for held, accepting, outs in zip(self.held, self.accepting, self.offers):
            for _, mask in outs:
                held &= ~mask
            dead.append(held & ~accepting)
        return dead


def shortest_path_counts(compiled: CompiledRoutes, dest_idx: int) -> List[int]:
    """Source node index -> the shortest paths ``compiled`` permits from it
    to ``dest_idx`` (1 at ``dest_idx`` itself): the paper's ``S``.

    Only hops that bring a header one hop nearer, by the ``distance`` of
    the table's routing algorithm's topology, are followed (nonminimal detours a relation
    may offer are excluded, matching the paper's metric).  A forward pass
    from every injection id collects the states a header can hold on such
    a path, by distance; the counts are then summed nearest first.  A
    dense table routes every arrival at a node alike, so its states are
    nodes, each held at its injection id.  Entries a table that is not
    closed lacks are compiled as they are read.
    """
    index = compiled.index
    head = index.dest_node_id
    inj_base = index.inj_base
    lookup = compiled.lookup
    topology = compiled.routing.topology  # type: ignore[union-attr]
    dist = topology.distances_to(index.nodes[dest_idx])
    collapse = compiled.dense is not None
    levels: List[List[int]] = [[] for _ in range(max(dist) + 1)]
    nearer: Dict[int, List[int]] = {}
    frontier = list(range(inj_base, index.ej_base))
    seen = set(frontier)
    for front in frontier:  # grows as the pass advances
        here = head[front]
        levels[dist[here]].append(front)
        if here == dest_idx:
            continue
        step = dist[here] - 1
        outs = nearer[front] = [
            inj_base + head[out] if collapse else out
            for out in lookup(front, dest_idx)
            if dist[head[out]] == step
        ]
        for out in outs:
            if out not in seen:
                seen.add(out)
                frontier.append(out)
    count = [0] * index.total_ids
    for front in levels[0]:
        count[front] = 1
    for level in levels[1:]:
        for front in level:
            count[front] = sum(count[out] for out in nearer[front])
    return count[inj_base:index.ej_base]
