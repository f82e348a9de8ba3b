"""Degree-of-adaptiveness math (Sections 3.4, 4.1, and 5).

``S_algorithm`` is the number of shortest paths an algorithm allows from a
source to a destination.  The paper gives closed forms for the fully
adaptive algorithm and each partially adaptive one; this module implements
those closed forms and the all-pairs average of ``S_p / S_f``.  The counts
themselves are taken on the compiled table a relation routes on
(:func:`repro.sim.ids.shortest_path_counts`), the same one the provers
read, so they hold for a degraded table as for a healthy one;
:func:`repro.verify.check_adaptiveness` checks them against the closed
forms.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Mapping, Sequence

from repro.topology.channels import NodeId

__all__ = [
    "multinomial",
    "s_fully_adaptive",
    "s_west_first",
    "s_north_last",
    "s_negative_first",
    "s_abonf",
    "s_abopl",
    "s_pcube",
    "s_ecube",
    "pcube_adaptiveness_ratio",
    "average_adaptiveness_ratio",
]


def multinomial(counts: Sequence[int]) -> int:
    """The multinomial coefficient ``(sum counts)! / prod(counts_i!)``."""
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be non-negative, got {counts}")
    result = factorial(sum(counts))
    for c in counts:
        result //= factorial(c)
    return result


def s_fully_adaptive(src: NodeId, dst: NodeId) -> int:
    """``S_f``: shortest paths available to a fully adaptive algorithm.

    ``(sum |delta_i|)! / prod |delta_i|!`` — for 2D meshes this is the
    paper's ``(dx + dy)! / (dx! dy!)``.
    """
    return multinomial([abs(d - s) for s, d in zip(src, dst)])


def s_west_first(src: NodeId, dst: NodeId) -> int:
    """``S_west-first`` (Section 3.4).

    Fully adaptive when the destination is not to the west
    (``d_x >= s_x``); otherwise a single path (west first, then the rest
    in fixed order... the algorithm permits exactly one shortest path).
    """
    (s_x, s_y), (d_x, d_y) = src, dst
    if d_x >= s_x:
        return s_fully_adaptive(src, dst)
    return 1


def s_north_last(src: NodeId, dst: NodeId) -> int:
    """``S_north-last`` (Section 3.4).

    Fully adaptive when the destination is not to the north
    (``d_y <= s_y``); otherwise a single shortest path.
    """
    (s_x, s_y), (d_x, d_y) = src, dst
    if d_y <= s_y:
        return s_fully_adaptive(src, dst)
    return 1


def s_negative_first(src: NodeId, dst: NodeId) -> int:
    """``S_negative-first`` for meshes of any dimension (Sections 3.4, 4.1).

    Fully adaptive when the displacement is entirely non-positive or
    entirely non-negative; for mixed displacements the negative moves must
    all precede the positive moves, each phase being adaptive internally,
    giving the product of the two phases' multinomials (1 in 2D, where
    each phase moves in a single dimension).
    """
    negatives = [s - d for s, d in zip(src, dst) if d < s]
    positives = [d - s for s, d in zip(src, dst) if d > s]
    return multinomial(negatives) * multinomial(positives)


def s_abonf(src: NodeId, dst: NodeId) -> int:
    """``S`` for all-but-one-negative-first on an n-dimensional mesh.

    Phase one moves adaptively in the negative directions of dimensions
    ``0 .. n-2``; phase two moves adaptively in everything else (the
    positive directions and negative dimension ``n-1``).
    """
    n = len(src)
    phase_one = [s - d for dim, (s, d) in enumerate(zip(src, dst)) if d < s and dim < n - 1]
    phase_two = [abs(d - s) for dim, (s, d) in enumerate(zip(src, dst)) if d > s or (d < s and dim == n - 1)]
    return multinomial(phase_one) * multinomial(phase_two)


def s_abopl(src: NodeId, dst: NodeId) -> int:
    """``S`` for all-but-one-positive-last on an n-dimensional mesh.

    Phase one moves adaptively in the negative directions and positive
    dimension 0; phase two moves adaptively in the positive directions of
    dimensions ``1 .. n-1``.
    """
    phase_one = [abs(d - s) for dim, (s, d) in enumerate(zip(src, dst)) if d < s or (d > s and dim == 0)]
    phase_two = [d - s for dim, (s, d) in enumerate(zip(src, dst)) if d > s and dim >= 1]
    return multinomial(phase_one) * multinomial(phase_two)


def s_pcube(src: NodeId, dst: NodeId) -> int:
    """``S_p-cube = h_1! h_0!`` (Section 5).

    ``h_1`` counts dimensions where the source bit is 1 and the
    destination bit 0 (phase-one hops) and ``h_0`` the reverse
    (phase-two hops).
    """
    h_1 = sum(1 for s, d in zip(src, dst) if s == 1 and d == 0)
    h_0 = sum(1 for s, d in zip(src, dst) if s == 0 and d == 1)
    return factorial(h_1) * factorial(h_0)


def s_ecube(src: NodeId, dst: NodeId) -> int:
    """``S`` for dimension-order routing: always exactly one path."""
    return 1


def pcube_adaptiveness_ratio(src: NodeId, dst: NodeId) -> float:
    """``S_p-cube / S_f = 1 / C(h, h_1)`` (Section 5)."""
    h_1 = sum(1 for s, d in zip(src, dst) if s == 1 and d == 0)
    h = sum(1 for s, d in zip(src, dst) if s != d)
    if h == 0:
        return 1.0
    return 1.0 / comb(h, h_1)


def average_adaptiveness_ratio(counts: Mapping[NodeId, Mapping[NodeId, int]]) -> float:
    """Mean of ``S_p / S_f`` over all ordered source-destination pairs.

    Section 3.4 reports this exceeds 1/2 for the three 2D algorithms, and
    Section 4.1 that it exceeds ``1 / 2**(n-1)`` in n dimensions.

    ``counts`` is destination -> source -> ``S_p``, keyed by every node
    in both places (as :func:`repro.sim.ids.shortest_path_counts` counts
    them).  The sum runs source-major, in the destinations' key order, so
    the float result does not depend on how the counts were produced.
    """
    nodes = list(counts)
    total = 0.0
    pairs = 0
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            total += counts[dst][src] / s_fully_adaptive(src, dst)
            pairs += 1
    return total / pairs
