"""The symmetries of an n-dimensional mesh, as relabellings of directions.

Section 3 counts twelve deadlock-free 2D prohibitions but only three
unique ones "when the symmetries of the mesh are taken into account".
This module supplies that group for any dimensionality;
:mod:`repro.synth.symmetry` quotients the candidate space by it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List

from repro.core.directions import Direction
from repro.core.turns import Turn

__all__ = ["signed_permutation_symmetries", "apply_symmetry"]

#: A symmetry of the network: a relabelling of directions.
DirectionMap = Dict[Direction, Direction]


def signed_permutation_symmetries(n_dims: int) -> List[DirectionMap]:
    """The ``2**n n!`` symmetries of an n-dimensional mesh.

    Every symmetry of an n-dim mesh that relabels directions is a signed
    permutation: a permutation of the dimensions composed with an
    optional reflection of each axis (the hyperoctahedral group ``B_n``).
    For ``n_dims == 2`` this is the eight-element dihedral group D4.

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
