"""Step 4 as a search space: enumerate candidate prohibition sets.

The turn model's Step 4 prohibits exactly one 90-degree turn from each
of the ``n (n-1)`` abstract cycles; the candidate space is therefore the
cartesian product of the cycles — ``4 ** (n (n-1))`` choices, 16 of them
for a 2D mesh (Section 3's census).  This module walks that space in a
deterministic order behind a topology-generic gate: meshes and
hypercubes share the direction algebra, so one enumerator serves both,
while wraparound topologies are rejected (their Step 5 channel surgery
is not representable as a pure prohibition set).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Tuple

from repro.core.turns import Turn, abstract_cycles
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh

__all__ = [
    "candidate_space_size",
    "enumerate_candidates",
    "synthesis_dims",
]


def synthesis_dims(topology: Topology) -> int:
    """The dimensionality synthesis runs at for this topology.

    Raises:
        ValueError: for topology families outside the synthesizable
            gate.  Meshes and hypercubes share the signed-direction
            algebra the enumeration is built on; tori need Step 5's
            wraparound treatment and the hex/oct meshes have their own
            direction systems.
    """
    if not isinstance(topology, (Mesh, Hypercube)):
        raise ValueError(
            f"synthesis covers meshes and hypercubes, not "
            f"{type(topology).__name__}"
        )
    if topology.n_dims < 2:
        raise ValueError("synthesis needs at least two dimensions")
    return topology.n_dims


def candidate_space_size(n_dims: int) -> int:
    """``4 ** (n (n-1))``: one of four turns per abstract cycle."""
    return 4 ** (n_dims * (n_dims - 1))


def enumerate_candidates(
    n_dims: int, max_candidates: Optional[int] = None
) -> Tuple[List[FrozenSet[Turn]], bool]:
    """The one-turn-per-cycle prohibition sets, in deterministic order.

    The order is the cartesian product of :func:`abstract_cycles` in
    their canonical order — the same order every run, so a capped
    enumeration is a *prefix* of the space and resuming with a larger
    cap only appends.

    Args:
        n_dims: dimensionality of the target network.
        max_candidates: stop after this many; ``None`` enumerates all
            :func:`candidate_space_size` of them.

    Returns:
        ``(candidates, truncated)`` — ``truncated`` is True when the cap
        cut the enumeration short, which downstream census counts must
        surface rather than silently report as full coverage.
    """
    space = itertools.product(*abstract_cycles(n_dims))
    if max_candidates is not None:
        sliced = itertools.islice(space, max_candidates)
        candidates = [frozenset(choice) for choice in sliced]
        truncated = len(candidates) == max_candidates and (
            max_candidates < candidate_space_size(n_dims)
        )
        return candidates, truncated
    return [frozenset(choice) for choice in space], False
