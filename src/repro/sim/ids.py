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
adaptiveness ``S``) and its restriction after a fault
(:meth:`CompiledRoutes.reach_restricted`, the one rule every fault
relation follows).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.channel_graph import RouteFn
from repro.core.digraph import ancestors, mask_ids
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["ChannelIndex", "CompiledRoutes", "RouteClosure", "shortest_path_counts"]


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
        "node_of", "phys_of", "num_physical", "multilane",
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
    :meth:`closure`, which the provers read.  ``route`` is a pure
    function of its arguments, so an entry is the same whoever computed
    it and a warmed run is bit-identical to a cold one.  A table built by
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
        reverse: per destination index, ``(predecessors, accepting,
            reached)`` of the closure (:meth:`RouteClosure.destination`),
            kept by the first :meth:`reach_restricted` of this table.
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
        self.reverse: Optional[List[Tuple[Dict[int, List[int]], List[int], int]]] = None
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
        closure is taken once, then every entry is derived in bulk; an
        entry that loses no id is ``parent``'s own tuple, shared.  Every
        state reachable under the restriction is then held, since its
        entries only narrow ``parent``'s, so the derived table asks no
        routing anything: it names ``parent.routing`` (what a proof
        names), and a lookup outside ``parent``'s closure raises
        :class:`LookupError` instead of filling a healthy entry.  The
        derived table keeps ``parent`` as its
        :attr:`parent`, so :meth:`is_restriction` can check it.

        Args:
            parent: the table to restrict; the result shares its index
                and table layout.
            dropped: destination index -> the ids its entries lose.
        """
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
            for key, entry in enumerate(dense):
                if entry:
                    lost = dropped[key % num_nodes]
                    if not lost.isdisjoint(entry):
                        dense[key] = tuple(o for o in entry if o not in lost)
            derived.dense, derived.bykey = dense, None
        else:
            assert parent.bykey is not None
            # Both key forms end in ``* N + dest``.
            bykey = dict(parent.bykey)
            for key, entry in bykey.items():
                lost = dropped[key % num_nodes]
                if not lost.isdisjoint(entry):
                    bykey[key] = tuple(o for o in entry if o not in lost)
            derived.dense, derived.bykey = None, bykey
        return derived

    @classmethod
    def reach_restricted(
        cls, parent: "CompiledRoutes", failed: Iterable[int]
    ) -> "CompiledRoutes":
        """:meth:`restricted` by the reach rule: drop the ``failed`` ids,
        then every id whose holder can no longer reach the destination.

        Per destination, one reverse search
        (:func:`~repro.core.digraph.ancestors`) from the ids entering it,
        over ``parent``'s closure reversed (:attr:`reverse`, built once),
        with the failed ids seeded as seen.  Reach is the least fixpoint:
        a live cycle that cannot reach the destination is dropped too.
        """
        reverse = parent.reverse
        if reverse is None:
            if parent.closed is not None:
                closure = RouteClosure(parent, *parent.closed)
            else:
                closure = parent.closure()
            reverse = parent.reverse = [
                (*closure.destination(dest_idx)[:2], reached)
                for dest_idx, reached in enumerate(closure.reached)
            ]
        blocked = sum(1 << ident for ident in set(failed))
        dropped = [
            frozenset(mask_ids(reached & ~ancestors(predecessors, accepting, blocked)))
            for predecessors, accepting, reached in reverse
        ]
        return cls.restricted(parent, dropped)

    def is_restriction(self) -> bool:
        """Whether this table is a restriction of its :attr:`parent`.

        Checked entry by entry: every entry this table holds is its
        parent's entry for the same state, or a subset of it, on the
        same index.  A state reachable here is then reachable in the
        parent, so this table's dependencies are some of the parent's
        and the parent's :attr:`numbering` certifies them.
        """
        parent = self.parent
        if parent is None or parent.index is not self.index:
            return False
        if parent.dense is not None:
            if self.dense is None or len(self.dense) != len(parent.dense):
                return False
            pairs: Iterator[Tuple[Optional[tuple], Optional[tuple]]] = zip(
                self.dense, parent.dense
            )
        else:
            if self.bykey is None or parent.bykey is None:
                return False
            parent_entry = parent.bykey.get
            pairs = ((entry, parent_entry(key)) for key, entry in self.bykey.items())
        return all(
            entry is None or entry is held
            or (held is not None and set(entry).issubset(held))
            for entry, held in pairs
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
        """
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
        self.closed = (succ, reached_for)
        return RouteClosure(self, succ, reached_for)

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

    def destination(self, dest_idx: int) -> Tuple[Dict[int, List[int]], List[int], List[int]]:
        """The relation toward one destination with its edges reversed, as
        ``(predecessors, accepting, dead_ends)``: channel id -> the reached
        channels that may request it next (one entry per offered output);
        the reached channels whose head is the destination; and those
        short of it that offer no output."""
        compiled = self.compiled
        head = compiled.index.dest_node_id
        predecessors: Dict[int, List[int]] = {}
        accepting: List[int] = []
        dead_ends: List[int] = []
        for front in mask_ids(self.reached[dest_idx]):
            if head[front] == dest_idx:
                accepting.append(front)
                continue
            outs = compiled.lookup(front, dest_idx)
            if not outs:
                dead_ends.append(front)
            for out in outs:
                predecessors.setdefault(out, []).append(front)
        return predecessors, accepting, dead_ends


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
    distance = compiled.routing.topology.distance  # type: ignore[union-attr]
    dest = index.nodes[dest_idx]
    dist = [distance(node, dest) for node in index.nodes]
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
