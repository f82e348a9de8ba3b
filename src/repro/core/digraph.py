"""Dependency relations in two forms, and the one acyclicity decider.

A relation over channel ids is a list of successor bitmasks
(``succ[front]`` has bit ``out`` set when ``front -> out``).  Both the
prover's relation, the closure of a compiled route table
(:mod:`repro.verify.deadlock`), and Step 4's turn-induced relation
(:func:`repro.core.channel_graph.restriction_is_deadlock_free`) are in
that form, and :func:`topological_numbering` decides both with one Kahn
pass.  :func:`ancestors` is the one reverse search over such a relation
reversed.

:class:`Digraph` is the object-level form: the exact dependency graph
the certificate re-check rebuilds from a routing callable
(:func:`repro.core.channel_graph.routing_cdg`), independent of the id
tables the prover reads.
"""

from __future__ import annotations

from typing import (Dict, Generic, Hashable, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, TypeVar)

__all__ = ["Digraph", "ancestors", "mask_ids", "topological_numbering"]

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


def ancestors(
    predecessors: Mapping[int, Sequence[int]], seeds: Iterable[int], blocked: int = 0
) -> int:
    """Bitmask of the distinct ``seeds`` and every id with a walk to one
    (reverse search over ``predecessors``: id -> the ids that may precede
    it).  The ids set in ``blocked`` start out seen, so the search
    neither enters nor expands them, and they are not in the answer."""
    mask = blocked
    frontier: List[int] = []
    for seed in seeds:
        if not mask >> seed & 1:
            mask |= 1 << seed
            frontier.append(seed)
    for front in frontier:  # grows as the search advances
        for pred in predecessors.get(front, ()):
            if not mask >> pred & 1:
                mask |= 1 << pred
                frontier.append(pred)
    return mask & ~blocked


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
