"""Channel dependency graphs and the Dally-Seitz deadlock test.

Dally and Seitz showed that a wormhole routing algorithm is deadlock free
if and only if its *channel dependency graph* — channels as vertices, with
an edge from channel ``a`` to channel ``b`` whenever the algorithm can
route a packet that holds ``a`` and next requests ``b`` — is acyclic.  The
turn model's Step 4 chooses prohibited turns precisely so this graph has no
cycles.

Two relations are decided here:

* :func:`restriction_is_deadlock_free` is Step 4's test: the dependency
  graph induced by a :class:`~repro.core.restrictions.TurnRestriction`
  alone, where every permitted turn (and straight continuation) between
  physically adjacent channels is an edge.  This over-approximates any
  routing algorithm obeying the restriction, so acyclicity here certifies
  *every* such algorithm, minimal or nonminimal.  It is built as id
  bitmasks (:func:`turn_successors`) and decided by the prover's Kahn pass
  (:func:`~repro.core.digraph.topological_numbering`);
  :func:`maximal_reversal_extension` (Step 6) reuses it.

* :func:`routing_cdg` builds the exact dependency graph of a concrete
  routing relation, tracking which (channel, destination) pairs are
  actually realizable from some source.  This is what the torus algorithms
  need, since their deadlock freedom depends on *how* wraparound channels
  are used, not just on which turns exist.  The prover decides the same
  relation on the compiled table's channel ids
  (:mod:`repro.verify.deadlock`); this object-level build is the
  independent definition its certificates are re-checked against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union, overload

from repro.core.digraph import Digraph, topological_numbering
from repro.core.directions import all_directions
from repro.core.restrictions import TurnRestriction
from repro.core.turns import Turn
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = [
    "RouteFn",
    "CycleWitness",
    "routing_cdg",
    "restriction_is_deadlock_free",
    "turn_successors",
    "maximal_reversal_extension",
]

#: A routing relation: given the channel a packet arrived on (``None`` when
#: the packet is at its source), the node it now occupies, and its
#: destination, return the output channels the algorithm permits.
RouteFn = Callable[[Optional[Channel], NodeId, NodeId], Iterable[Channel]]

#: One dependency edge of the exact channel dependency graph.
_Edge = Tuple[Channel, Channel]


@dataclass(frozen=True)
class CycleWitness:
    """A realizable dependency cycle, rendered as channels and turns.

    Refuting deadlock freedom needs more than "the graph has a cycle": a
    human (or a certificate checker) wants the channel sequence, the turn
    each hop takes, and for each dependency an example destination whose
    packets realize it.  The witness behaves like a plain channel list
    (``len``, indexing, slicing, and iteration all see the channels),
    while the verifier renders the full certificate.

    Attributes:
        channels: the channels of the cycle, in order; the cycle closes
            from the last channel back to the first.
        turns: ``turns[i]`` is the turn from ``channels[i]`` into
            ``channels[(i + 1) % len]`` (``None`` for a 0-degree straight
            continuation, which the paper does not count as a turn).
        dests: ``dests[i]`` is a destination for which a packet holding
            ``channels[i]`` may request ``channels[(i + 1) % len]``, when
            the builder recorded one (``None`` for turn-level witnesses,
            which over-approximate every destination at once).
    """

    channels: Tuple[Channel, ...]
    turns: Tuple[Optional[Turn], ...]
    dests: Tuple[Optional[NodeId], ...]

    def __post_init__(self) -> None:
        if not (len(self.channels) == len(self.turns) == len(self.dests)):
            raise ValueError("witness fields must be parallel sequences")

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self.channels)

    @overload
    def __getitem__(self, index: int) -> Channel: ...

    @overload
    def __getitem__(self, index: slice) -> List[Channel]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Channel, List[Channel]]:
        if isinstance(index, slice):
            return list(self.channels[index])
        return self.channels[index]

    def turn_names(self) -> List[str]:
        """The cycle's turns as compass strings (``"straight"`` for none)."""
        return [str(turn) if turn is not None else "straight" for turn in self.turns]

    def render(self) -> str:
        """A multi-line, human-readable account of the circular wait."""
        lines = [f"dependency cycle of {len(self.channels)} channels:"]
        count = len(self.channels)
        for i, channel in enumerate(self.channels):
            turn = self.turns[i]
            dest = self.dests[i]
            step = str(turn) if turn is not None else "straight"
            realized = f"  [packet bound for {dest}]" if dest is not None else ""
            nxt = self.channels[(i + 1) % count]
            lines.append(f"  {channel}  --{step}-->  {nxt}{realized}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def from_channels(
        cls,
        channels: Iterable[Channel],
        edge_dests: Optional[Dict[_Edge, NodeId]] = None,
    ) -> "CycleWitness":
        """Build a witness from a channel cycle, deriving the turns.

        Args:
            channels: the cycle's channels in order (first not repeated).
            edge_dests: optional map from dependency edge to an example
                destination realizing it.
        """
        chans = tuple(channels)
        turns: List[Optional[Turn]] = []
        dests: List[Optional[NodeId]] = []
        for i, channel in enumerate(chans):
            nxt = chans[(i + 1) % len(chans)]
            if channel.direction == nxt.direction:
                turns.append(None)
            else:
                turns.append(Turn(channel.direction, nxt.direction))
            dests.append(
                edge_dests.get((channel, nxt)) if edge_dests is not None else None
            )
        return cls(chans, tuple(turns), tuple(dests))


def routing_cdg(
    topology: Topology,
    route_fn: RouteFn,
    edge_dests: Optional[Dict[_Edge, NodeId]] = None,
) -> Digraph[Channel]:
    """Exact dependency graph of a routing relation.

    Only realizable dependencies are included: for each destination, the
    set of channels a packet bound for that destination can actually hold
    is computed by forward closure from every source, and edges are added
    along the way.

    Args:
        topology: the network.
        route_fn: the routing relation.
        edge_dests: when given, filled with one example destination per
            dependency edge (the first destination whose closure added
            it), so cycle witnesses can show which packets realize each
            dependency.
    """
    graph: Digraph[Channel] = Digraph()
    for channel in topology.channels():
        graph.add_vertex(channel)
    for dest in topology.nodes():
        frontier: deque[Channel] = deque()
        reached: set[Channel] = set()
        for source in topology.nodes():
            if source == dest:
                continue
            for first in route_fn(None, source, dest):
                if first not in reached:
                    reached.add(first)
                    frontier.append(first)
        while frontier:
            in_channel = frontier.popleft()
            node = in_channel.dst
            if node == dest:
                continue
            for out_channel in route_fn(in_channel, node, dest):
                graph.add_edge(in_channel, out_channel)
                if edge_dests is not None:
                    edge_dests.setdefault((in_channel, out_channel), dest)
                if out_channel not in reached:
                    reached.add(out_channel)
                    frontier.append(out_channel)
    return graph


def restriction_is_deadlock_free(
    topology: Topology, restriction: TurnRestriction
) -> bool:
    """Whether *every* routing algorithm obeying ``restriction`` is safe.

    Step 4's test: the turn-induced dependency graph has an edge from
    channel ``a`` to channel ``b`` whenever ``b`` leaves the node ``a``
    enters and the restriction permits the transition from ``a``'s
    direction to ``b``'s (:func:`turn_successors`).  It over-approximates
    any algorithm obeying the restriction, minimal or nonminimal, so its
    acyclicity certifies them all.  It is decided by the prover's Kahn
    pass (:func:`~repro.core.digraph.topological_numbering`).  It decides
    tori as directly as meshes: :class:`~repro.topology.torus.Torus`
    labels each wraparound channel by how its coordinate moves
    (``k-1 -> 0`` is ``-``, ``0 -> k-1`` is ``+``; Section 4.2's virtual
    directions), so coordinates are monotone along every direction and a
    ring closes only through a reversal the restriction must permit.
    Step 4 accepts 12 of the 16 2D candidates on torus:3x2 and
    torus:4x2, as on mesh:4x4.
    """
    return topological_numbering(turn_successors(topology, restriction)) is not None


def turn_successors(topology: Topology, restriction: TurnRestriction) -> List[int]:
    """Step 4's turn-induced relation as successor bitmasks over
    ``topology.channels()`` ids: ``a -> b`` when ``b`` leaves the node
    ``a`` enters and the restriction permits the turn (straight
    continuations and permitted reversals included).

    Built per direction: a channel's mask is the union of its head
    node's out-channels in the directions its own may turn into."""
    channels = topology.channels()
    directions = sorted({channel.direction for channel in channels})
    position = {direction: index for index, direction in enumerate(directions)}
    # Per direction, the bitmask of the directions it may turn into.
    turns = [
        sum(1 << index for index, to in enumerate(directions) if restriction.permits(frm, to))
        for frm in directions
    ]
    ways = [position[channel.direction] for channel in channels]
    # Per node, per direction: the bitmask of its out-channels that way.
    leaving: Dict[NodeId, Dict[int, int]] = {}
    for ident, (channel, way) in enumerate(zip(channels, ways)):
        out = leaving.setdefault(channel.src, {})
        out[way] = out.get(way, 0) | 1 << ident
    return [
        sum(mask for to, mask in leaving.get(channel.dst, {}).items() if turns[way] >> to & 1)
        for channel, way in zip(channels, ways)
    ]


def maximal_reversal_extension(
    topology: Topology, restriction: TurnRestriction
) -> TurnRestriction:
    """Step 6 on ``topology``: admit each 180-degree reversal, in sorted
    direction order, whose addition keeps the turn-induced dependency
    graph acyclic (:func:`restriction_is_deadlock_free`).

    The result is maximal: no further reversal can be added.  An
    already-cyclic restriction admits nothing, so the loop leaves it
    unchanged rather than masking the deadlock.
    """
    current = restriction
    for direction in sorted(all_directions(restriction.n_dims)):
        candidate = current.with_reversals([Turn(direction, direction.opposite)])
        if restriction_is_deadlock_free(topology, candidate):
            current = candidate
    return current
