"""Name-based construction of routing algorithms.

The analysis harness and the experiment drivers refer to algorithms by the
names the paper uses in its figures (``xy``, ``e-cube``, ``abonf``,
``abopl``, ``negative-first``, ``p-cube``, ...); this registry turns a name
plus a topology into the right algorithm instance.  The paper's
turn-model algorithms are rows of :data:`TURN_SETS` — a turn set plus
minimal or nonminimal mode — not classes of their own.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict

from repro.core.restrictions import (
    TurnRestriction,
    abonf_restriction,
    abopl_restriction,
    dimension_order_restriction,
    negative_first_restriction,
    north_last_restriction,
    west_first_restriction,
)
from repro.routing.base import RoutingAlgorithm
from repro.routing.hex_routing import (
    HexDimensionOrderRouting,
    HexNegativeFirstRouting,
)
from repro.routing.oct_routing import (
    OctDimensionOrderRouting,
    OctNegativeFirstRouting,
)
from repro.routing.pcube import PCubeRouting
from repro.routing.torus_routing import (
    FirstHopWraparoundRouting,
    NegativeFirstTorusRouting,
)
from repro.routing.turn_table import TurnRestrictionRouting
from repro.topology.base import Topology
from repro.topology.hexagonal import HexMesh
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.topology.octagonal import OctMesh
from repro.topology.torus import Torus

__all__ = [
    "TURN_SETS",
    "make_routing",
    "available_algorithms",
    "canonical_name",
    "UnknownNameError",
]

Factory = Callable[[Topology], RoutingAlgorithm]


class UnknownNameError(KeyError, ValueError):
    """An unregistered routing/pattern/policy name.

    Subclasses both :class:`KeyError` (it is a failed registry lookup)
    and :class:`ValueError` (the historical type callers catch).  The
    message lists close matches first — synthesized names like
    ``synth2-nw.sw`` are long enough that typos are otherwise hard to
    spot — and always lists the valid names.
    """

    def __init__(self, kind: str, name: str, known: "list[str]") -> None:
        self.kind = kind
        self.name = name
        self.known = sorted(known)
        self.suggestions = difflib.get_close_matches(
            canonical_name(name), self.known, n=3, cutoff=0.6
        )
        hint = ""
        if self.suggestions:
            hint = f" did you mean {' or '.join(self.suggestions)}?"
        message = (
            f"unknown {kind} {name!r};{hint} known: {', '.join(self.known)}"
        )
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message.
        return self.args[0]


def canonical_name(name: str) -> str:
    """Normalize a registry name: trim, lowercase, underscores to hyphens.

    ``"negative_first"``, ``" Negative-First "``, and ``"negative-first"``
    all canonicalize to ``"negative-first"``.  Every registry lookup
    (routings, patterns, selection policies) goes through this one
    function so aliases behave identically everywhere.
    """
    return name.strip().lower().replace("_", "-")


#: The paper's turn-model algorithms (Sections 3-5) as their turn sets:
#: name -> the restriction at a topology's dimensionality.  Each name
#: resolves to a :class:`TurnRestrictionRouting` over its set, so the
#: relation simulated and certified is the turn set itself.
TURN_SETS: Dict[str, Callable[[int], TurnRestriction]] = {
    # Nonadaptive baselines: one dimension at a time.
    "xy": dimension_order_restriction,
    "yx": lambda n: dimension_order_restriction(n, (1, 0)),
    "e-cube": dimension_order_restriction,
    "dimension-order": dimension_order_restriction,
    # 2D mesh partially adaptive algorithms (Section 3).
    "west-first": lambda n: west_first_restriction(),
    "north-last": lambda n: north_last_restriction(),
    # n-dimensional algorithms (Section 4.1); for 2D meshes abonf is
    # west-first and abopl is north-last, matching the Section 6 labels.
    "negative-first": negative_first_restriction,
    "abonf": abonf_restriction,
    "abopl": abopl_restriction,
    # Hypercubes (Section 5): p-cube is negative-first on binary
    # coordinates.
    "p-cube": negative_first_restriction,
}


def _turn_set(name: str, minimal: bool = True) -> Factory:
    """The factory of ``name``'s turn set, in minimal or nonminimal mode."""

    def build(topology: Topology) -> TurnRestrictionRouting:
        label = name
        if name == "dimension-order":
            label = "e-cube" if isinstance(topology, Hypercube) else "xy"
        restriction = TURN_SETS[name](topology.n_dims)
        return TurnRestrictionRouting(topology, restriction, minimal=minimal, name=label)

    return build


_FACTORIES: Dict[str, Factory] = {
    # The turn sets, minimal and (where the paper runs them so)
    # nonminimal.
    "xy": _turn_set("xy"),
    "yx": _turn_set("yx"),
    "e-cube": _turn_set("e-cube"),
    "dimension-order": _turn_set("dimension-order"),
    "west-first": _turn_set("west-first"),
    "west-first-nonminimal": _turn_set("west-first", minimal=False),
    "north-last": _turn_set("north-last"),
    "north-last-nonminimal": _turn_set("north-last", minimal=False),
    "negative-first": _turn_set("negative-first"),
    "negative-first-nonminimal": _turn_set("negative-first", minimal=False),
    "abonf": _turn_set("abonf"),
    "abonf-nonminimal": _turn_set("abonf", minimal=False),
    "abopl": _turn_set("abopl"),
    "abopl-nonminimal": _turn_set("abopl", minimal=False),
    "p-cube": _turn_set("p-cube"),
    # Figure 12's nonminimal p-cube, which is not nonminimal negative-first.
    "p-cube-nonminimal": PCubeRouting,
    # Section 7 future-work topologies.
    "hex-negative-first": HexNegativeFirstRouting,
    "hex-ab-order": HexDimensionOrderRouting,
    "oct-negative-first": OctNegativeFirstRouting,
    "oct-ab-order": OctDimensionOrderRouting,
    # k-ary n-cube extensions (Section 4.2); the bases route the mesh
    # channels by mesh minimal directions.
    "negative-first-torus": NegativeFirstTorusRouting,
    "xy+first-hop-wrap": lambda t: FirstHopWraparoundRouting(
        t, _turn_set("dimension-order")(t)
    ),
    "negative-first+first-hop-wrap": lambda t: FirstHopWraparoundRouting(
        t, _turn_set("negative-first")(t)
    ),
}


def available_algorithms(topology: Topology) -> list[str]:
    """Names of the algorithms applicable to the given topology."""
    names = []
    for name in sorted(_FACTORIES):
        if name.startswith("hex-"):
            applicable = isinstance(topology, HexMesh)
        elif name.startswith("oct-"):
            applicable = isinstance(topology, OctMesh)
        elif name in ("xy", "yx", "west-first", "north-last",
                      "west-first-nonminimal", "north-last-nonminimal"):
            applicable = isinstance(topology, Mesh) and topology.n_dims == 2
        elif name in ("e-cube", "p-cube", "p-cube-nonminimal"):
            applicable = isinstance(topology, Hypercube)
        elif "torus" in name or "wrap" in name:
            applicable = isinstance(topology, Torus)
        else:
            applicable = isinstance(topology, (Mesh, Hypercube))
        if applicable:
            names.append(name)
    return names


def make_routing(name: str, topology: Topology) -> RoutingAlgorithm:
    """Construct the named routing algorithm on ``topology``.

    Args:
        name: an algorithm name as used in the paper's figures; see
            :func:`available_algorithms`.
        topology: the network to route on.

    Names are canonicalized first (see :func:`canonical_name`), so
    ``"negative_first"`` and ``"Negative-First"`` both resolve.

    Synthesized names (``synth2-nw.sw``; see
    :mod:`repro.routing.synth_names`) are self-describing and resolve
    without prior registration, so any process — sweep workers
    included — can rebuild a synthesized router from its name alone.

    Raises:
        UnknownNameError: for unknown names (a KeyError *and* a
            ValueError), listing the valid ones.
        ValueError: for a registered name that does not apply to the
            topology, listing the applicable ones.  No name applies to a
            :class:`~repro.topology.faults.FaultyTopology`: a fault
            restricts the healthy table instead.
    """
    canonical = canonical_name(name)
    factory = _FACTORIES.get(canonical)
    if factory is None:
        # Deferred import: synth_names imports turn_table, which imports
        # repro.routing.base alongside this module.
        from repro.routing.synth_names import (
            is_synth_name,
            routing_from_synth_name,
        )

        if is_synth_name(canonical):
            # A grammar-valid synth name; any remaining failure (bad
            # turn code, dimension mismatch, unsupported topology) is a
            # precise ValueError of its own, not an unknown name.
            return routing_from_synth_name(canonical, topology)
        raise UnknownNameError("routing algorithm", name, list(_FACTORIES))
    applicable = available_algorithms(topology)
    if canonical not in applicable:
        raise ValueError(
            f"routing algorithm {name!r} does not apply to {topology!r}; "
            f"applicable: {', '.join(applicable) or 'none'}"
        )
    return factory(topology)
