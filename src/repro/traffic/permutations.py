"""The paper's permutation workloads, plus common extras.

Section 6 evaluates two nonuniform patterns:

* **matrix transpose** — in the mesh, the processor at row i, column j
  sends to the one at row j, column i; in the hypercube, the pattern
  derived by embedding a 16x16 mesh sends ``(x0,...,x7)`` to
  ``(~x4, x5, x6, x7, ~x0, x1, x2, x3)``.
* **reverse flip** — ``(x0,...,x7)`` to ``(~x7, ~x6, ..., ~x0)``.

The extras (bit complement, bit reverse, perfect shuffle, tornado) are
standard in the interconnection-network literature and feed the extension
experiments.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.channels import NodeId
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.traffic.patterns import PermutationTraffic

__all__ = [
    "mesh_transpose",
    "mesh_transpose_diagonal",
    "hypercube_transpose",
    "reverse_flip",
    "bit_complement",
    "bit_reverse",
    "perfect_shuffle",
    "tornado",
    "make_pattern",
    "available_patterns",
]


def mesh_transpose(topology: Mesh) -> PermutationTraffic:
    """Matrix transpose on a square 2D mesh (Section 6).

    The paper sends from the processor at row i, column j to the one at
    row j, column i.  Matrix row indices grow *southward* while the mesh
    y coordinate grows northward, so in compass coordinates the pattern
    is the anti-diagonal reflection ``(x, y) -> (n-1-y, m-1-x)``: every
    displacement satisfies ``dx == dy``, the geometry under which the
    paper's negative-first results (fully adaptive on every transpose
    pair, ~2x xy's sustainable throughput) hold.  Use
    :func:`mesh_transpose_diagonal` for the other orientation — the
    asymmetry between the two is a known property of turn-model routing
    and is covered by the orientation ablation benchmark.

    Anti-diagonal nodes (x + y == n-1) send to themselves and therefore
    generate no traffic.
    """
    if topology.n_dims != 2 or topology.shape[0] != topology.shape[1]:
        raise ValueError(f"matrix transpose needs a square 2D mesh, got {topology!r}")
    side = topology.shape[0]

    def permute(node: NodeId) -> NodeId:
        return (side - 1 - node[1], side - 1 - node[0])

    return PermutationTraffic(topology, permute, "transpose")


def mesh_transpose_diagonal(topology: Mesh) -> PermutationTraffic:
    """Main-diagonal transpose: ``(x, y) -> (y, x)``.

    The same communication pattern as :func:`mesh_transpose` reflected
    onto the other diagonal.  Against this orientation negative-first
    degenerates to a single path per pair — the flip side of the turn
    model's asymmetry.
    """
    if topology.n_dims != 2 or topology.shape[0] != topology.shape[1]:
        raise ValueError(f"matrix transpose needs a square 2D mesh, got {topology!r}")
    return PermutationTraffic(
        topology, lambda node: (node[1], node[0]), "transpose-diagonal"
    )


def hypercube_transpose(topology: Hypercube) -> PermutationTraffic:
    """The mesh-transpose pattern embedded in a hypercube (Section 6).

    For the 8-cube the paper derives
    ``(x0,...,x7) -> (~x4, x5, x6, x7, ~x0, x1, x2, x3)``; the general
    even-n form swaps the two address halves and complements the leading
    bit of each half.
    """
    n = topology.n_dims
    if n % 2 != 0:
        raise ValueError(f"hypercube transpose needs even dimension, got {n}")
    half = n // 2

    def permute(node: NodeId) -> NodeId:
        low, high = node[:half], node[half:]
        new_low = (1 - high[0],) + high[1:]
        new_high = (1 - low[0],) + low[1:]
        return new_low + new_high

    return PermutationTraffic(topology, permute, "transpose")


def reverse_flip(topology: Hypercube) -> PermutationTraffic:
    """Reverse flip: reverse the address bits and complement them all."""

    def permute(node: NodeId) -> NodeId:
        return tuple(1 - bit for bit in reversed(node))

    return PermutationTraffic(topology, permute, "reverse-flip")


def bit_complement(topology: Hypercube) -> PermutationTraffic:
    """Bit complement: every node sends to its address complement."""

    def permute(node: NodeId) -> NodeId:
        return tuple(1 - bit for bit in node)

    return PermutationTraffic(topology, permute, "bit-complement")


def bit_reverse(topology: Hypercube) -> PermutationTraffic:
    """Bit reverse: reverse the address bits (no complement)."""

    def permute(node: NodeId) -> NodeId:
        return tuple(reversed(node))

    return PermutationTraffic(topology, permute, "bit-reverse")


def perfect_shuffle(topology: Hypercube) -> PermutationTraffic:
    """Perfect shuffle: rotate the address bits left by one."""

    def permute(node: NodeId) -> NodeId:
        return node[1:] + node[:1]

    return PermutationTraffic(topology, permute, "shuffle")


def tornado(topology: Topology) -> PermutationTraffic:
    """Tornado: each node sends almost halfway around dimension 0.

    Defined for any topology; on tori it is the classic adversary for
    dimension-order routing.
    """
    k = topology.shape[0]
    stride = max(1, (k + 1) // 2 - 1)

    def permute(node: NodeId) -> NodeId:
        return ((node[0] + stride) % k,) + node[1:]

    return PermutationTraffic(topology, permute, "tornado")


def _uniform(topology: Topology):
    from repro.traffic.patterns import UniformTraffic

    return UniformTraffic(topology)


def _transpose(topology: Topology):
    if isinstance(topology, Hypercube):
        return hypercube_transpose(topology)
    return mesh_transpose(topology)


_PATTERN_FACTORIES = {
    "uniform": _uniform,
    "transpose": _transpose,
    "transpose-diagonal": mesh_transpose_diagonal,
    "reverse-flip": reverse_flip,
    "bit-complement": bit_complement,
    "bit-reverse": bit_reverse,
    "shuffle": perfect_shuffle,
    "tornado": tornado,
}


def available_patterns() -> list:
    """The registered traffic-pattern names, sorted."""
    return sorted(_PATTERN_FACTORIES)


def make_pattern(name: str, topology: Topology):
    """Construct a traffic pattern by name.

    Accepts ``uniform``, ``transpose`` (dispatching on topology type),
    ``reverse-flip``, ``bit-complement``, ``bit-reverse``, ``shuffle``,
    and ``tornado``.  Names are canonicalized with the same rules as the
    routing registry, so ``"reverse_flip"`` and ``"Reverse-Flip"`` both
    resolve.

    Raises:
        UnknownNameError: for unknown names (a KeyError *and* a
            ValueError), listing the valid ones.
    """
    from repro.routing.registry import UnknownNameError, canonical_name

    try:
        factory = _PATTERN_FACTORIES[canonical_name(name)]
    except KeyError:
        raise UnknownNameError(
            "traffic pattern", name, list(_PATTERN_FACTORIES)
        ) from None
    return factory(topology)
