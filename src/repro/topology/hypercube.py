"""Binary hypercube topology.

A hypercube is an n-dimensional mesh with every ``k_i = 2``, equivalently a
2-ary n-cube (paper, Section 1).  Every node has exactly one neighbor per
dimension — the node whose address differs in that bit — joined by a pair
of unidirectional channels.  The channel from a node whose bit is 0 to the
node whose bit is 1 travels in the positive direction of that dimension and
its partner travels in the negative direction, which is what makes p-cube
routing a special case of negative-first (Section 5).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = ["Hypercube", "node_to_bits", "bits_to_node"]


class Hypercube(Topology):
    """A binary n-cube with ``2**n`` nodes.

    Node coordinates are bit tuples ``(x_0, ..., x_{n-1})``; dimension 0 is
    bit 0.  The paper writes addresses most-significant-bit first (e.g.
    source ``1011010100`` in the Section 5 table); use
    :func:`node_to_bits` / :func:`bits_to_node` to convert.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"a hypercube needs n >= 1 dimensions, got {n}")
        self._n = n

    @property
    def n_dims(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, ...]:
        return (2,) * self._n

    def nodes(self) -> Iterable[NodeId]:
        return itertools.product((0, 1), repeat=self._n)

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        self.validate_node(node)
        return self._out_channels_cached(node)

    @lru_cache(maxsize=None)
    def _out_channels_cached(self, node: NodeId) -> tuple[Channel, ...]:
        channels = []
        for dim in range(self._n):
            bit = node[dim]
            dst = node[:dim] + (1 - bit,) + node[dim + 1 :]
            sign = 1 if bit == 0 else -1
            channels.append(Channel(node, dst, Direction(dim, sign)))
        return tuple(channels)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        """Hamming distance between the two addresses."""
        return sum(s != d for s, d in zip(src, dst))


def node_to_bits(node: NodeId) -> str:
    """Render a node's bit tuple as the paper's bit-string notation.

    The paper writes addresses with bit ``x_0`` first, e.g. the node
    ``(x_0, x_1, ..., x_{n-1})`` prints as ``x_0 x_1 ... x_{n-1}``.
    """
    return "".join(str(bit) for bit in node)


def bits_to_node(bits: str) -> NodeId:
    """Parse the paper's bit-string notation into a node coordinate tuple."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"expected a non-empty binary string, got {bits!r}")
    return tuple(int(ch) for ch in bits)
