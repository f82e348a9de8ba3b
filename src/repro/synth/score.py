"""Rank certified candidates by degree of adaptiveness.

The paper's figure of merit for a partially adaptive algorithm is its
degree of adaptiveness ``S``: how many shortest paths it permits per
source-destination pair, normalized by the fully adaptive count
(Sections 3.4 and 4.1).  Candidates are scored by
:func:`repro.core.adaptiveness.average_adaptiveness_ratio` — exhaustive
path counting on the minimal router's compiled table — on a radix-capped
copy of the target topology: the ratio is a per-pair average whose
ordering is stable across mesh sizes, while exhaustive counting on a
large target mesh would dominate the whole synthesis run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.core.adaptiveness import average_adaptiveness_ratio
from repro.core.restrictions import TurnRestriction
from repro.core.turns import Turn
from repro.routing.registry import TURN_SETS
from repro.routing.synth_names import synth_name
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.ids import CompiledRoutes, shortest_path_counts
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh, Mesh2D

__all__ = ["adaptiveness_score", "named_restrictions", "scoring_topology"]


def scoring_topology(topology: Topology, radix_cap: int) -> Topology:
    """The topology adaptiveness scores are computed on.

    Meshes are shrunk to at most ``radix_cap`` nodes per dimension
    (never below the original radix); hypercubes score as themselves —
    their radix is already 2.
    """
    if isinstance(topology, Hypercube):
        return topology
    assert isinstance(topology, Mesh)
    shape = tuple(min(radix, radix_cap) for radix in topology.shape)
    if shape == tuple(topology.shape):
        return topology
    if len(shape) == 2:
        return Mesh2D(*shape)
    return Mesh(shape)


def adaptiveness_score(
    topology: Topology, prohibited: FrozenSet[Turn]
) -> float:
    """Mean ``S_candidate / S_fully-adaptive`` over all ordered pairs.

    Counts on the *minimal* router's compiled table — the ``S`` metric
    is about shortest paths, and the minimal router offers exactly the
    permitted distance-decreasing hops.
    """
    name = synth_name(topology.n_dims, prohibited)
    restriction = TurnRestriction(topology.n_dims, prohibited, name=name)
    compiled = CompiledRoutes(TurnRestrictionRouting(topology, restriction, minimal=True))
    nodes = compiled.index.nodes
    return average_adaptiveness_ratio({
        dst: dict(zip(nodes, shortest_path_counts(compiled, d)))
        for d, dst in enumerate(nodes)
    })


def named_restrictions(n_dims: int) -> Dict[str, TurnRestriction]:
    """The paper's named prohibition sets at this dimensionality.

    Read from the registry's :data:`~repro.routing.registry.TURN_SETS`.
    The rediscovery check compares each certified symmetry class
    against these: for 2D, west-first, north-last, and negative-first
    (Section 3); for higher dimensions, negative-first and the
    all-but-one families (Section 4.1).  ABONF and ABOPL specialize to
    west-first and north-last at ``n == 2`` and are omitted there.
    """
    if n_dims == 2:
        names = ("west-first", "north-last", "negative-first")
    else:
        names = ("negative-first", "abonf", "abopl")
    return {name: TURN_SETS[name](n_dims) for name in names}
