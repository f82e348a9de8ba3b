"""The per-destination definitions the bit-parallel reach code is held to.

:class:`repro.sim.ids.ReachRelation` answers reach over a table's
closure for every destination at once, and
:meth:`repro.sim.ids.CompiledRoutes.restricted` rewrites only the
entries at the nodes a dropped id leaves.  These are the plain forms
they replace, kept as oracles:

* :func:`ancestors`: one reverse search over a relation, from seeds,
  never entering the blocked ids;
* :func:`destination`: one destination's relation reversed, read off
  the closure state by state;
* :func:`reach_dropped`: the reach rule one destination at a time;
* :func:`full_scan_restricted`: every entry of the parent filtered by
  its destination's dropped ids.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.digraph import mask_ids
from repro.sim.ids import CompiledRoutes, RouteClosure

__all__ = ["ancestors", "destination", "full_scan_restricted", "reach_dropped"]


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


def destination(
    closure: RouteClosure, dest_idx: int
) -> Tuple[Dict[int, List[int]], List[int], List[int]]:
    """The relation toward one destination with its edges reversed, as
    ``(predecessors, accepting, dead_ends)``: channel id -> the reached
    channels that may request it next (one entry per offered output);
    the reached channels whose head is the destination; and those short
    of it that offer no output."""
    compiled = closure.compiled
    head = compiled.index.dest_node_id
    predecessors: Dict[int, List[int]] = {}
    accepting: List[int] = []
    dead_ends: List[int] = []
    for front in mask_ids(closure.reached[dest_idx]):
        if head[front] == dest_idx:
            accepting.append(front)
            continue
        outs = compiled.lookup(front, dest_idx)
        if not outs:
            dead_ends.append(front)
        for out in outs:
            predecessors.setdefault(out, []).append(front)
    return predecessors, accepting, dead_ends


def reach_dropped(healthy: CompiledRoutes, failed: Iterable[int]) -> List[int]:
    """Per destination, the mask of ids the reach rule drops: the reached
    ids that no walk avoiding ``failed`` takes to the destination, found
    by one reverse search per destination."""
    closure = healthy.closure()
    blocked = sum(1 << ident for ident in set(failed))
    dropped = []
    for dest_idx, reached in enumerate(closure.reached):
        predecessors, accepting, _ = destination(closure, dest_idx)
        dropped.append(reached & ~ancestors(predecessors, accepting, blocked))
    return dropped


def full_scan_restricted(
    parent: CompiledRoutes, dropped: Sequence[AbstractSet[int]]
) -> Dict[int, tuple]:
    """Every entry ``parent`` holds, keyed as its table is, with the ids
    in ``dropped[dest]`` removed in order (both key forms end in
    ``* N + dest``)."""
    num_nodes = parent.index.num_nodes
    if parent.dense is not None:
        table: Dict[int, tuple] = {
            key: entry for key, entry in enumerate(parent.dense) if entry is not None
        }
    else:
        assert parent.bykey is not None
        table = dict(parent.bykey)
    return {
        key: tuple(o for o in entry if o not in dropped[key % num_nodes])
        for key, entry in table.items()
    }
