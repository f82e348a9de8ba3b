"""The synthesized-routing name grammar: ``synth2-nw.sw``.

The synthesis engine (:mod:`repro.synth`) compiles every certified
turn-prohibition candidate into a runnable
:class:`~repro.routing.turn_table.TurnRestrictionRouting` registered
under a *self-describing* canonical name.  The name encodes the
candidate completely, so :func:`repro.routing.registry.make_routing`
can rebuild the router in any process — sweep workers included —
without shared registration state, and an
:class:`~repro.analysis.executor.ExperimentSpec` naming a synthesized
algorithm stays a pure-primitive, content-hashable value.

Grammar (already canonical under
:func:`repro.routing.registry.canonical_name`)::

    synth<n>-<code>[.<code>...][-nonminimal]

where ``<n>`` is the dimensionality and each ``<code>`` names one
prohibited 90-degree turn.  2D codes use the paper's compass letters,
from-direction first (``nw`` = the north-to-west turn); higher
dimensions use sign-dimension pairs (``p0n1`` = the turn from ``+0``
into ``-1``).  Codes are emitted sorted, so equal prohibition sets
always produce the same name; parsing accepts any order (and the
generic form for 2D) and canonicalizes.

Examples: ``synth2-nw.sw`` prohibits the two turns into west — the
west-first candidate; ``synth2-es.nw`` is negative-first;
``synth3-p0n1.p0n2.p1n0.p1n2.p2n0.p2n1-nonminimal`` is the nonminimal
3D negative-first analog.

The nonminimal variant runs Step 6 of the model on construction
(:func:`repro.core.channel_graph.maximal_reversal_extension`): the
maximal set of safe 180-degree reversals, validated against the target
topology's turn-induced dependency graph in deterministic order.
(Minimal routing never takes a reversal — every hop must reduce
distance — so the minimal variant skips the extension.)
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Tuple

from repro.core.channel_graph import maximal_reversal_extension
from repro.core.directions import Direction
from repro.core.restrictions import TurnRestriction
from repro.core.turns import Turn
from repro.routing.turn_table import TurnRestrictionRouting
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh

__all__ = [
    "SYNTH_PREFIX",
    "is_synth_name",
    "parse_synth_name",
    "synth_name",
    "turn_code",
    "routing_from_synth_name",
]

#: Leading token of every synthesized-routing name.
SYNTH_PREFIX = "synth"

_COMPASS_TO_DIRECTION: Dict[str, Direction] = {
    "w": Direction(0, -1),
    "e": Direction(0, 1),
    "s": Direction(1, -1),
    "n": Direction(1, 1),
}
_DIRECTION_TO_COMPASS = {
    direction: letter for letter, direction in _COMPASS_TO_DIRECTION.items()
}

_NAME_RE = re.compile(
    rf"^{SYNTH_PREFIX}(?P<dims>[1-9][0-9]*)-(?P<codes>[a-z0-9.]+?)"
    r"(?P<nonminimal>-nonminimal)?$"
)
_GENERIC_CODE_RE = re.compile(r"^(?P<fs>[pn])(?P<fd>[0-9]+)(?P<ts>[pn])(?P<td>[0-9]+)$")
_COMPASS_CODE_RE = re.compile(r"^[wens]{2}$")
_SIGN_LETTER = {1: "p", -1: "n"}
_LETTER_SIGN = {"p": 1, "n": -1}


def turn_code(turn: Turn, n_dims: int) -> str:
    """The name-grammar code of one prohibited turn.

    2D turns use compass letters (``nw`` = north-to-west); other
    dimensionalities use the generic sign-dimension form (``p0n1``).
    """
    if n_dims == 2:
        return _DIRECTION_TO_COMPASS[turn.frm] + _DIRECTION_TO_COMPASS[turn.to]
    return (
        f"{_SIGN_LETTER[turn.frm.sign]}{turn.frm.dim}"
        f"{_SIGN_LETTER[turn.to.sign]}{turn.to.dim}"
    )


def _decode_code(code: str, n_dims: int) -> Turn:
    match = _GENERIC_CODE_RE.match(code)
    if match is not None:
        turn = Turn(
            Direction(int(match.group("fd")), _LETTER_SIGN[match.group("fs")]),
            Direction(int(match.group("td")), _LETTER_SIGN[match.group("ts")]),
        )
    elif n_dims == 2 and _COMPASS_CODE_RE.match(code):
        turn = Turn(_COMPASS_TO_DIRECTION[code[0]], _COMPASS_TO_DIRECTION[code[1]])
    else:
        raise ValueError(f"bad turn code {code!r} for {n_dims} dimensions")
    if turn.frm.dim >= n_dims or turn.to.dim >= n_dims:
        raise ValueError(f"turn code {code!r} exceeds {n_dims} dimensions")
    if not turn.is_ninety_degree:
        raise ValueError(f"turn code {code!r} is not a 90-degree turn")
    return turn


def synth_name(
    n_dims: int, prohibited: FrozenSet[Turn], minimal: bool = True
) -> str:
    """The canonical synthesized name of a prohibition set.

    Codes are sorted lexicographically, so equal sets always yield the
    same name — which is what makes the name usable as a registry key,
    a cache-key component, and a symmetry-class representative label.
    """
    if not prohibited:
        raise ValueError("a synthesized name needs at least one prohibited turn")
    for turn in prohibited:
        if not turn.is_ninety_degree:
            raise ValueError(f"prohibited set must hold 90-degree turns: {turn}")
        if turn.frm.dim >= n_dims or turn.to.dim >= n_dims:
            raise ValueError(f"turn {turn} exceeds {n_dims} dimensions")
    codes = sorted(turn_code(turn, n_dims) for turn in prohibited)
    suffix = "" if minimal else "-nonminimal"
    return f"{SYNTH_PREFIX}{n_dims}-{'.'.join(codes)}{suffix}"


def is_synth_name(name: str) -> bool:
    """Whether a canonical registry name uses the synthesized grammar."""
    return _NAME_RE.match(name) is not None


def parse_synth_name(name: str) -> Tuple[int, FrozenSet[Turn], bool]:
    """Decode a synthesized name into ``(n_dims, prohibited, minimal)``.

    Raises:
        ValueError: if the name does not follow the grammar, a code is
            malformed, a code repeats, or a turn is not a 90-degree
            turn within the declared dimensionality.
    """
    match = _NAME_RE.match(name)
    if match is None:
        raise ValueError(f"not a synthesized routing name: {name!r}")
    n_dims = int(match.group("dims"))
    if n_dims < 2:
        raise ValueError(f"synthesized names need at least 2 dimensions: {name!r}")
    codes = match.group("codes").split(".")
    turns = [_decode_code(code, n_dims) for code in codes]
    prohibited = frozenset(turns)
    if len(prohibited) != len(turns):
        raise ValueError(f"duplicate turn codes in {name!r}")
    return n_dims, prohibited, match.group("nonminimal") is None


def routing_from_synth_name(
    name: str, topology: Topology
) -> TurnRestrictionRouting:
    """Build the turn-table router a synthesized name describes.

    Deterministic: the same name on the same topology always yields the
    same restriction (reversal extension included) and therefore
    bit-identical routing decisions — the property that lets sweep
    workers rebuild synthesized routers from the name alone.

    Raises:
        ValueError: for malformed names, a dimensionality mismatch, or
            an unsupported topology family (the grammar covers meshes
            and hypercubes; wraparound topologies need Step 5, which
            the synthesized grammar does not encode).
    """
    n_dims, prohibited, minimal = parse_synth_name(name)
    if not isinstance(topology, (Mesh, Hypercube)):
        raise ValueError(
            f"synthesized routings run on meshes and hypercubes, not "
            f"{type(topology).__name__}"
        )
    if topology.n_dims != n_dims:
        raise ValueError(
            f"{name!r} is {n_dims}-dimensional but the topology has "
            f"{topology.n_dims} dimensions"
        )
    base_name = synth_name(n_dims, prohibited, minimal=True)
    restriction = TurnRestriction(n_dims, prohibited, name=base_name)
    if not minimal:
        restriction = maximal_reversal_extension(topology, restriction)
    return TurnRestrictionRouting(
        topology, restriction, minimal=minimal, name=base_name
    )
