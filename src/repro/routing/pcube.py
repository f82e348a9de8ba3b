"""Nonminimal p-cube routing for hypercubes (Section 5, Figure 12).

Minimal p-cube (Figure 11) is negative-first on a hypercube, and the
registry builds it from that turn set.  Figure 12's nonminimal rule is
not nonminimal negative-first, so it keeps a class.  Let ``C`` be the
address of the node the header currently occupies and ``D`` the
destination address:

1. If ``C == D``, deliver the packet.
2. ``R = C & ~D``  (dimensions to clear: phase one).
3. If ``R != 0``, also route along any dimension with ``c_i = 1`` —
   including dimensions where the destination bit is also 1, which must
   be set again in phase two.
4. Otherwise ``R = ~C & D``  (dimensions to set: phase two).
5. Route along any available channel in a dimension ``i`` with ``r_i = 1``.

Phase one hops all clear bits, so the number of ones decreases
monotonically and routing remains livelock free.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.restrictions import negative_first_restriction
from repro.routing.base import RoutingAlgorithm
from repro.topology.channels import Channel, NodeId
from repro.topology.hypercube import Hypercube

__all__ = ["PCubeRouting"]


class PCubeRouting(RoutingAlgorithm):
    """Nonminimal p-cube routing (Figure 12).

    Its hops obey negative-first's turn set (:attr:`restriction`), which
    the deadlock certificate and the turn audit read.
    """

    name = "p-cube-nonminimal"
    minimal = False
    uses_in_channel = False

    def __init__(self, topology: Hypercube):
        if not isinstance(topology, Hypercube):
            raise ValueError("p-cube routing is defined for hypercubes")
        super().__init__(topology)
        self.restriction = negative_first_restriction(topology.n_dims)
        # A hypercube node has exactly one channel per dimension.
        self._by_dim = {
            node: {ch.direction.dim: ch for ch in topology.out_channels(node)}
            for node in topology.nodes()
        }

    def route_dims(self, node: NodeId, dest: NodeId) -> list[int]:
        """The dimensions the algorithm may route along (the set bits of R).

        Productive dimensions come first; in phase one the extra choices
        (``c_i = 1`` and ``d_i = 1``) follow them.
        """
        phase_one = [i for i, (c, d) in enumerate(zip(node, dest)) if c == 1 and d == 0]
        if phase_one:
            extra = [i for i, (c, d) in enumerate(zip(node, dest)) if c == 1 and d == 1]
            return phase_one + extra
        return [i for i, (c, d) in enumerate(zip(node, dest)) if c == 0 and d == 1]

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Sequence[Channel]:
        channels = self._by_dim[node]
        return tuple(channels[dim] for dim in self.route_dims(node, dest))
