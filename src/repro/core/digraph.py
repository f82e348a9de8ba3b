"""Dependency relations in two forms, and the one acyclicity decider.

A relation over channel ids is a list of successor bitmasks
(``succ[front]`` has bit ``out`` set when ``front -> out``).  Both the
prover's relation, the closure of a compiled route table
(:mod:`repro.verify.deadlock`), and Step 4's turn-induced relation
(:func:`repro.core.channel_graph.restriction_is_deadlock_free`) are in
that form, and :func:`topological_numbering` decides both with one Kahn
pass.  Reach over a closure is read per destination bit-parallel
instead (:class:`repro.sim.ids.ReachRelation`).

:class:`Digraph` is the object-level form: the exact dependency graph
the certificate re-check rebuilds from a routing callable
(:func:`repro.core.channel_graph.routing_cdg`), independent of the id
tables the prover reads.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

__all__ = ["Digraph", "mask_ids", "topological_numbering"]

V = TypeVar("V", bound=Hashable)


def mask_ids(mask: int) -> Iterator[int]:
    """The ids set in a channel bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def topological_numbering(succ: Sequence[int]) -> Optional[List[int]]:
    """A numbering of the relation ``succ`` (id -> bitmask of its
    successors): id -> rank in a topological order (Kahn's), so every
    dependency strictly increases.  ``None`` when the relation has a
    cycle, which no numbering can order."""
    indegree = [0] * len(succ)
    for mask in succ:
        for out in mask_ids(mask):
            indegree[out] += 1
    order = [front for front, count in enumerate(indegree) if not count]
    for front in order:  # grows as ids lose their last predecessor
        for out in mask_ids(succ[front]):
            indegree[out] -= 1
            if not indegree[out]:
                order.append(out)
    if len(order) < len(succ):
        return None
    numbering = [0] * len(succ)
    for rank, front in enumerate(order):
        numbering[front] = rank
    return numbering


class Digraph(Generic[V]):
    """A directed graph over hashable vertices."""

    def __init__(self) -> None:
        self._succ: Dict[V, Set[V]] = {}

    def add_vertex(self, v: V) -> None:
        """Add ``v`` if not already present."""
        self._succ.setdefault(v, set())

    def add_edge(self, u: V, v: V) -> None:
        """Add the edge ``u -> v``, adding the endpoints as needed."""
        self.add_vertex(u)
        self.add_vertex(v)
        self._succ[u].add(v)

    def vertices(self) -> List[V]:
        return list(self._succ)

    def successors(self, v: V) -> Set[V]:
        return set(self._succ.get(v, ()))

    def edges(self) -> Iterator[Tuple[V, V]]:
        for u, succ in self._succ.items():
            for v in succ:
                yield u, v
