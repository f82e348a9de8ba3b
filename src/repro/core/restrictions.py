"""Turn restrictions: the output of the turn model.

A :class:`TurnRestriction` records which turns a routing algorithm may use.
Step 4 of the model prohibits one 90-degree turn per abstract cycle; Step 6
adds back as many 180-degree turns as possible.  Continuing straight ahead
is never a turn and is always permitted, and a packet's first hop out of its
source (no previous direction) is unrestricted.

The named restrictions of Sections 3-5 are provided as constructors:
west-first, north-last, and negative-first for 2D meshes, their
n-dimensional analogs ABONF, ABOPL, and negative-first, and the
dimension-order family (xy, yx, e-cube) the paper compares them with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from repro.core.directions import Direction, EAST, NORTH, SOUTH, WEST, all_directions
from repro.core.turns import Turn, TurnKind, abstract_cycles, ninety_degree_turns

__all__ = [
    "turn_to_payload",
    "turn_from_payload",
    "TurnRestriction",
    "fully_adaptive",
    "xy_restriction",
    "dimension_order_restriction",
    "west_first_restriction",
    "north_last_restriction",
    "negative_first_restriction",
    "abonf_restriction",
    "abopl_restriction",
    "figure4_restriction",
]


def turn_to_payload(turn: Turn) -> List[int]:
    """A turn as four plain integers: ``[frm.dim, frm.sign, to.dim, to.sign]``.

    The JSON-ready encoding restriction serialization and synthesis
    artifacts share; inverse of :func:`turn_from_payload`.
    """
    return [turn.frm.dim, turn.frm.sign, turn.to.dim, turn.to.sign]


def turn_from_payload(payload: Sequence[int]) -> Turn:
    """Rebuild a turn encoded by :func:`turn_to_payload`."""
    if len(payload) != 4:
        raise ValueError(f"turn payload needs 4 integers, got {list(payload)!r}")
    frm_dim, frm_sign, to_dim, to_sign = (int(part) for part in payload)
    return Turn(Direction(frm_dim, frm_sign), Direction(to_dim, to_sign))


def _sorted_payloads(turns: Iterable[Turn]) -> List[List[int]]:
    return [turn_to_payload(turn) for turn in sorted(turns)]


@dataclass(frozen=True)
class TurnRestriction:
    """The set of turns a routing algorithm is permitted to make.

    Attributes:
        n_dims: dimensionality of the network the restriction applies to.
        prohibited: the prohibited 90-degree turns.
        allowed_reversals: the 180-degree turns explicitly permitted
            (Step 6 of the model); all other reversals are prohibited.
        name: optional human-readable label.
    """

    n_dims: int
    prohibited: FrozenSet[Turn]
    allowed_reversals: FrozenSet[Turn] = frozenset()
    name: str = ""

    def __post_init__(self) -> None:
        # permits() answers per (frm, to): immutable, so never stale.
        object.__setattr__(self, "_permits", {})
        for turn in self.prohibited:
            if not turn.is_ninety_degree:
                raise ValueError(f"prohibited set must hold 90-degree turns: {turn}")
            self._check_dims(turn)
        for turn in self.allowed_reversals:
            if turn.kind != TurnKind.ONE_EIGHTY:
                raise ValueError(f"reversal set must hold 180-degree turns: {turn}")
            self._check_dims(turn)

    def _check_dims(self, turn: Turn) -> None:
        if turn.frm.dim >= self.n_dims or turn.to.dim >= self.n_dims:
            raise ValueError(f"turn {turn} exceeds {self.n_dims} dimensions")

    def permits(self, frm: Optional[Direction], to: Direction) -> bool:
        """Whether a packet travelling in ``frm`` may next travel in ``to``.

        ``frm is None`` means the packet is leaving its source node, which
        is always permitted.  Continuing straight (``frm == to``) is not a
        turn and is always permitted.
        """
        if frm is None or frm is to:
            return True
        memo: Dict[Any, bool] = self._permits  # type: ignore[attr-defined]
        answer = memo.get((frm, to))
        if answer is None:
            turn = Turn(frm, to)
            if turn.kind == TurnKind.ZERO:
                answer = True
            elif turn.kind == TurnKind.ONE_EIGHTY:
                answer = turn in self.allowed_reversals
            else:
                answer = turn not in self.prohibited
            memo[(frm, to)] = answer
        return answer

    def permits_turn(self, turn: Turn) -> bool:
        """Whether the given turn is permitted."""
        return self.permits(turn.frm, turn.to)

    @property
    def allowed(self) -> FrozenSet[Turn]:
        """The permitted 90-degree turns."""
        return frozenset(
            turn for turn in ninety_degree_turns(self.n_dims)
            if turn not in self.prohibited
        )

    def is_transitive(self) -> bool:
        """Whether permitting ``a->b`` and ``b->c`` always permits ``a->c``.

        Checked over every three directions ``a``, ``b``, ``c`` in three
        distinct dimensions (vacuously true in 2D).  Under a transitive
        restriction a minimal packet never needs its arrival direction:
        the permitted all-productive path that brought it here chains
        from its arrival to each remaining productive direction, so the
        turn straight into that direction is permitted too, and every
        reachable state routes exactly like an injection at its node.
        """
        directions = list(all_directions(self.n_dims))
        permits = self.permits
        return all(
            permits(a, c)
            for a in directions
            for b in directions
            if b.dim != a.dim and permits(a, b)
            for c in directions
            if c.dim not in (a.dim, b.dim) and permits(b, c)
        )

    def breaks_every_abstract_cycle(self) -> bool:
        """Whether at least one turn in every abstract cycle is prohibited.

        This is the *necessary* condition of Step 4; it is not sufficient
        (Figure 4 shows two prohibited turns, one per cycle, that still
        deadlock).  Sufficiency is established by the channel-dependency
        check in :mod:`repro.core.channel_graph`.
        """
        return all(
            any(turn in self.prohibited for turn in cycle)
            for cycle in abstract_cycles(self.n_dims)
        )

    def with_reversals(self, reversals: Iterable[Turn]) -> "TurnRestriction":
        """A copy with additional 180-degree turns permitted."""
        return TurnRestriction(
            self.n_dims,
            self.prohibited,
            self.allowed_reversals | frozenset(reversals),
            self.name,
        )

    def with_name(self, name: str) -> "TurnRestriction":
        """A copy carrying the given label."""
        return TurnRestriction(
            self.n_dims, self.prohibited, self.allowed_reversals, name
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_dict`.

        Turn sets are emitted in sorted order, so equal restrictions
        serialize byte-identically — the property synthesis artifacts
        and content hashes rely on.
        """
        return {
            "n_dims": self.n_dims,
            "prohibited": _sorted_payloads(self.prohibited),
            "allowed_reversals": _sorted_payloads(self.allowed_reversals),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TurnRestriction":
        """Rebuild a restriction saved by :meth:`to_dict`."""
        return cls(
            n_dims=int(payload["n_dims"]),
            prohibited=frozenset(
                turn_from_payload(turn) for turn in payload["prohibited"]
            ),
            allowed_reversals=frozenset(
                turn_from_payload(turn)
                for turn in payload.get("allowed_reversals", ())
            ),
            name=str(payload.get("name", "")),
        )

    def __str__(self) -> str:
        label = self.name or "restriction"
        turns = ", ".join(sorted(str(t) for t in self.prohibited))
        return f"{label}(prohibits: {turns})"


def fully_adaptive(n_dims: int) -> TurnRestriction:
    """No turns prohibited: fully adaptive, and *not* deadlock free.

    Useful as a negative control — the deadlock checker must reject it —
    and for counting shortest paths of a fully adaptive algorithm.
    """
    return TurnRestriction(n_dims, frozenset(), name="fully-adaptive")


def figure4_restriction() -> TurnRestriction:
    """Figure 4's faulty prohibition: two turns that do *not* stop deadlock.

    Prohibiting a turn together with its inverse (here east-to-south and
    south-to-east) nominally breaks each abstract cycle, but the three
    left turns remaining in one cycle are equivalent to the prohibited
    right turn of the other, so both cycles survive and deadlock remains
    possible (Figure 4c).  Kept as a negative control: the Dally-Seitz
    checker must reject it and the simulator's deadlock detector fires on
    it.
    """
    prohibited = frozenset((Turn(EAST, SOUTH), Turn(SOUTH, EAST)))
    return TurnRestriction(2, prohibited, name="figure-4-faulty")


def xy_restriction() -> TurnRestriction:
    """The xy routing restriction for 2D meshes.

    xy routing travels along x before y, which prohibits the four turns
    out of the y dimension back into the x dimension (paper, Figure 3).
    """
    return dimension_order_restriction(2).with_name("xy")


def dimension_order_restriction(
    n_dims: int, order: Optional[Sequence[int]] = None
) -> TurnRestriction:
    """Dimension-order routing's turn set: no turn into an earlier dimension.

    Routing resolves the dimensions one at a time in ``order`` (ascending
    by default: xy on a 2D mesh, e-cube on a hypercube), so every turn
    into a dimension earlier in the order is prohibited (Figure 3
    generalized); yx routing is the order ``(1, 0)``.
    """
    if order is None:
        order = tuple(range(n_dims))
    if sorted(order) != list(range(n_dims)):
        raise ValueError(f"dimension order must permute 0..{n_dims - 1}: {order}")
    rank = {dim: position for position, dim in enumerate(order)}
    prohibited = frozenset(
        turn for turn in ninety_degree_turns(n_dims)
        if rank[turn.to.dim] < rank[turn.frm.dim]
    )
    return TurnRestriction(n_dims, prohibited, name="dimension-order")


def west_first_restriction() -> TurnRestriction:
    """West-first: prohibit the two turns to the west (Figure 5a).

    To travel west a packet must start out west, so westward hops all come
    first; afterwards routing is adaptive among south, east, and north.
    The reversal west->east is safe (a packet done with its westward phase
    may double back east for nonminimal routing) and is permitted.
    """
    prohibited = frozenset((Turn(NORTH, WEST), Turn(SOUTH, WEST)))
    return TurnRestriction(
        2, prohibited, frozenset((Turn(WEST, EAST),)), name="west-first"
    )


def north_last_restriction() -> TurnRestriction:
    """North-last: prohibit the two turns when travelling north (Figure 9a).

    A packet travels north only as its final direction; beforehand routing
    is adaptive among west, south, and east.  The reversals south->north
    and west->east are safe and permitted.
    """
    prohibited = frozenset((Turn(NORTH, WEST), Turn(NORTH, EAST)))
    return TurnRestriction(
        2,
        prohibited,
        frozenset((Turn(SOUTH, NORTH), Turn(WEST, EAST))),
        name="north-last",
    )


def negative_first_restriction(n_dims: int = 2) -> TurnRestriction:
    """Negative-first: prohibit every positive-to-negative turn.

    For 2D these are the two turns from a positive direction to a negative
    one (Figure 10a); for n dimensions there are ``n (n-1)`` of them —
    exactly the Theorem 1 minimum, which is why negative-first witnesses
    the sufficiency half of Theorem 6.  All negative-to-positive reversals
    are safe and permitted.
    """
    prohibited = frozenset(
        Turn(Direction(i, 1), Direction(j, -1))
        for i in range(n_dims)
        for j in range(n_dims)
        if i != j
    )
    reversals = frozenset(
        Turn(Direction(i, -1), Direction(i, 1)) for i in range(n_dims)
    )
    return TurnRestriction(n_dims, prohibited, reversals, name="negative-first")


def abonf_restriction(n_dims: int) -> TurnRestriction:
    """All-but-one-negative-first, the n-dim analog of west-first.

    Route first adaptively in the negative directions of all but one
    dimension (we keep dimension ``n-1`` out of the first phase, matching
    the paper's parenthetical), then adaptively in the other directions.
    Prohibited turns: from any second-phase direction into a first-phase
    (negative, dim < n-1) direction.  Reversals out of the first phase
    (negative to positive within a first-phase dimension) are safe.

    For ``n_dims == 2`` this is exactly west-first.
    """
    first_phase = [Direction(d, -1) for d in range(n_dims - 1)]
    second_phase = [Direction(d, 1) for d in range(n_dims)]
    second_phase.append(Direction(n_dims - 1, -1))
    prohibited = frozenset(
        Turn(frm, to)
        for frm in second_phase
        for to in first_phase
        if frm.dim != to.dim
    )
    reversals = frozenset(Turn(d, d.opposite) for d in first_phase)
    return TurnRestriction(
        n_dims, prohibited, reversals, name="all-but-one-negative-first"
    )


def abopl_restriction(n_dims: int) -> TurnRestriction:
    """All-but-one-positive-last, the n-dim analog of north-last.

    Route first adaptively in all the negative directions plus the
    positive direction of dimension 0, then adaptively in the remaining
    positive directions.  Prohibited turns: from a positive direction of a
    dimension other than 0 back into any first-phase direction — exactly
    ``n`` turns from each of the ``n - 1`` second-phase directions, i.e.
    the Theorem 1 minimum ``n (n-1)``.  The reversals negative-to-positive
    are safe and permitted.

    For ``n_dims == 2`` this is exactly north-last (the single last
    direction is +y, i.e. north).
    """
    second_phase = [Direction(d, 1) for d in range(1, n_dims)]
    first_phase = [Direction(d, -1) for d in range(n_dims)]
    first_phase.append(Direction(0, 1))
    prohibited = frozenset(
        Turn(frm, to)
        for frm in second_phase
        for to in first_phase
        if frm.dim != to.dim
    )
    reversals = frozenset(
        Turn(Direction(d, -1), Direction(d, 1)) for d in range(n_dims)
    )
    return TurnRestriction(
        n_dims, prohibited, reversals, name="all-but-one-positive-last"
    )
