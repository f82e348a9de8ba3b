"""The turn model itself: the six-step design procedure of Section 2.

:class:`TurnModel` mechanizes the paper's procedure for a given number of
dimensions:

1. partition channels by virtual direction (``directions``),
2. identify the possible turns (``turns``),
3. identify the abstract cycles the turns can form (``cycles``),
4. prohibit one turn per cycle so as to break every cycle, complex cycles
   included (``candidate_prohibitions`` generates the choices and
   ``is_valid_prohibition`` runs the Dally-Seitz check that weeds out
   combinations like Figure 4's),
5. wraparound channels are incorporated by the torus routing algorithms in
   :mod:`repro.routing.torus_routing`,
6. incorporate as many 180-degree turns as possible
   (``maximal_reversal_extension``).

The module also provides the Section 3 bookkeeping for 2D meshes: of the 16
ways to prohibit one turn from each abstract cycle, 12 prevent deadlock and
3 are unique when the symmetries of the mesh are taken into account.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.channel_graph import restriction_is_deadlock_free
from repro.core.directions import Direction, all_directions
from repro.core.restrictions import TurnRestriction
from repro.core.turns import (
    Turn,
    abstract_cycles,
    minimum_prohibited_turns,
    ninety_degree_turns,
)
from repro.topology.mesh import Mesh

__all__ = [
    "TurnModel",
    "mesh_symmetries_2d",
    "signed_permutation_symmetries",
    "apply_symmetry",
    "symmetry_classes",
]

#: A symmetry of the network: a relabelling of directions.
DirectionMap = Dict[Direction, Direction]


def _rotation_2d() -> DirectionMap:
    """Quarter-turn counterclockwise rotation of the 2D compass."""
    east, west = Direction(0, 1), Direction(0, -1)
    north, south = Direction(1, 1), Direction(1, -1)
    return {east: north, north: west, west: south, south: east}


def _reflection_2d() -> DirectionMap:
    """Reflection across the x axis (north and south exchange)."""
    east, west = Direction(0, 1), Direction(0, -1)
    north, south = Direction(1, 1), Direction(1, -1)
    return {east: east, west: west, north: south, south: north}


def _compose(f: DirectionMap, g: DirectionMap) -> DirectionMap:
    return {d: f[g[d]] for d in g}


def mesh_symmetries_2d() -> List[DirectionMap]:
    """The eight symmetries of the 2D mesh (the dihedral group D4)."""
    identity = {d: d for d in all_directions(2)}
    rho = _rotation_2d()
    mu = _reflection_2d()
    rotations = [identity]
    for _ in range(3):
        rotations.append(_compose(rho, rotations[-1]))
    return rotations + [_compose(rot, mu) for rot in rotations]


def signed_permutation_symmetries(n_dims: int) -> List[DirectionMap]:
    """The ``2**n n!`` symmetries of an n-dimensional mesh.

    Every symmetry of an n-dim mesh that relabels directions is a signed
    permutation: a permutation of the dimensions composed with an
    optional reflection of each axis (the hyperoctahedral group ``B_n``).
    For ``n_dims == 2`` this is exactly the eight-element dihedral group
    of :func:`mesh_symmetries_2d`, just enumerated in a different order.

    The enumeration order is deterministic (permutations in lexicographic
    order, sign patterns with ``+1`` before ``-1`` per axis), so orbit
    computations built on it are reproducible.
    """
    if n_dims < 1:
        raise ValueError(f"need at least one dimension, got {n_dims}")
    maps: List[DirectionMap] = []
    for perm in itertools.permutations(range(n_dims)):
        for signs in itertools.product((1, -1), repeat=n_dims):
            maps.append(
                {
                    Direction(dim, sign): Direction(perm[dim], sign * signs[dim])
                    for dim in range(n_dims)
                    for sign in (1, -1)
                }
            )
    return maps


def apply_symmetry(
    mapping: DirectionMap, turns: Iterable[Turn]
) -> frozenset[Turn]:
    """Relabel a set of turns under a network symmetry."""
    return frozenset(Turn(mapping[t.frm], mapping[t.to]) for t in turns)


def symmetry_classes(
    prohibition_sets: Iterable[frozenset[Turn]],
    symmetries: Optional[Sequence[DirectionMap]] = None,
) -> List[List[frozenset[Turn]]]:
    """Group prohibition sets into equivalence classes under symmetry.

    Args:
        prohibition_sets: the sets of prohibited turns to classify.
        symmetries: the direction relabellings to quotient by; defaults to
            the eight 2D mesh symmetries.

    Returns:
        The classes, each a list of member sets, ordered by first
        appearance in the input.
    """
    if symmetries is None:
        symmetries = mesh_symmetries_2d()
    classes: List[List[frozenset[Turn]]] = []
    canon_to_class: Dict[frozenset[frozenset[Turn]], int] = {}
    for turns in prohibition_sets:
        orbit = frozenset(apply_symmetry(sym, turns) for sym in symmetries)
        index = canon_to_class.get(orbit)
        if index is None:
            canon_to_class[orbit] = len(classes)
            classes.append([turns])
        else:
            classes[index].append(turns)
    return classes


class TurnModel:
    """The six-step turn-model procedure for an n-dimensional mesh."""

    def __init__(self, n_dims: int, validation_mesh: Optional[Mesh] = None):
        """
        Args:
            n_dims: dimensionality of the target network.
            validation_mesh: mesh on which candidate prohibitions are
                checked for deadlock freedom; defaults to radix 3 per
                dimension, which is large enough to exhibit every turn and
                every abstract cycle.
        """
        if n_dims < 2:
            raise ValueError("the turn model needs at least two dimensions")
        self.n_dims = n_dims
        self._mesh = validation_mesh or Mesh((3,) * n_dims)
        if self._mesh.n_dims != n_dims:
            raise ValueError(
                f"validation mesh has {self._mesh.n_dims} dims, expected {n_dims}"
            )

    # -- Steps 1-3: directions, turns, cycles ------------------------------

    def directions(self) -> List[Direction]:
        """Step 1: the 2n virtual directions channels are partitioned into."""
        return list(all_directions(self.n_dims))

    def turns(self) -> List[Turn]:
        """Step 2: the 4n(n-1) possible 90-degree turns."""
        return ninety_degree_turns(self.n_dims)

    def cycles(self) -> List[tuple[Turn, ...]]:
        """Step 3: the n(n-1) abstract cycles of four turns each."""
        return abstract_cycles(self.n_dims)

    @property
    def minimum_prohibited(self) -> int:
        """Theorem 1: the minimum number of turns that must be prohibited."""
        return minimum_prohibited_turns(self.n_dims)

    # -- Step 4: prohibit one turn per cycle -------------------------------

    def candidate_prohibitions(self) -> Iterator[frozenset[Turn]]:
        """Every way of prohibiting exactly one turn from each cycle.

        For 2D meshes this yields the 16 combinations of Section 3.  The
        count grows as ``4 ** (n (n-1))``, so exhaustive enumeration is
        only practical for small n.
        """
        for choice in itertools.product(*self.cycles()):
            yield frozenset(choice)

    def is_valid_prohibition(self, prohibited: Iterable[Turn]) -> bool:
        """Whether prohibiting these turns prevents deadlock.

        Runs the Dally-Seitz test on the validation mesh against the
        dependency graph induced by the remaining turns, which catches the
        complex cycles Step 4 warns about (e.g. Figure 4's six-turn
        deadlock, where each abstract cycle is nominally broken).
        """
        restriction = TurnRestriction(self.n_dims, frozenset(prohibited))
        return restriction_is_deadlock_free(self._mesh, restriction)

    def deadlock_free_prohibitions(self) -> List[frozenset[Turn]]:
        """All valid one-turn-per-cycle prohibitions (12 for 2D meshes)."""
        return [
            turns
            for turns in self.candidate_prohibitions()
            if self.is_valid_prohibition(turns)
        ]

    def unique_prohibitions(
        self, symmetries: Optional[Sequence[DirectionMap]] = None
    ) -> List[frozenset[Turn]]:
        """One representative per symmetry class (3 for 2D meshes).

        The default symmetry group is the full signed-permutation group
        of the mesh (:func:`signed_permutation_symmetries`), which for
        2D coincides with the dihedral group of
        :func:`mesh_symmetries_2d`.
        """
        if symmetries is None:
            symmetries = signed_permutation_symmetries(self.n_dims)
        classes = symmetry_classes(self.deadlock_free_prohibitions(), symmetries)
        return [cls[0] for cls in classes]

    # -- Step 6: incorporate 180-degree turns ------------------------------

    def maximal_reversal_extension(
        self, restriction: TurnRestriction
    ) -> TurnRestriction:
        """Greedily add 180-degree turns while deadlock freedom holds.

        Reversals are tried in sorted order; each candidate is kept only if
        the turn-induced dependency graph on the validation mesh remains
        acyclic.  The result is maximal: no further reversal can be added.
        """
        current = restriction
        reversals = sorted(
            Turn(d, d.opposite) for d in all_directions(self.n_dims)
        )
        for reversal in reversals:
            if reversal in current.allowed_reversals:
                continue
            candidate = current.with_reversals([reversal])
            if restriction_is_deadlock_free(self._mesh, candidate):
                current = candidate
        return current

    def restriction(
        self, prohibited: Iterable[Turn], name: str = "", add_reversals: bool = True
    ) -> TurnRestriction:
        """Build a validated restriction from a prohibition set.

        Args:
            prohibited: the 90-degree turns to prohibit.
            name: label for the resulting restriction.
            add_reversals: run Step 6 and include the maximal set of safe
                180-degree turns.

        Raises:
            ValueError: if the prohibition does not prevent deadlock.
        """
        prohibited = frozenset(prohibited)
        if not self.is_valid_prohibition(prohibited):
            raise ValueError(
                f"prohibiting {sorted(map(str, prohibited))} does not prevent "
                "deadlock (the remaining turns still form a cycle)"
            )
        result = TurnRestriction(self.n_dims, prohibited, name=name)
        if add_reversals:
            result = self.maximal_reversal_extension(result).with_name(name)
        return result
