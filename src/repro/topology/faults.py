"""Channel-fault injection.

The paper motivates nonminimal routing with fault tolerance: adaptiveness
"provides alternative paths for packets that encounter ... faulty
hardware" (Section 1).  :class:`FaultyTopology` wraps any topology and
removes a set of failed channels.  The package builds no routing on it: a
fault restricts the healthy route table
(:meth:`repro.sim.ids.CompiledRoutes.reach_restricted`), under which a
nonminimal turn table steers packets around the faults while minimal
algorithms lose connectivity — the contrast the fault-tolerance
analysis measures.  The checkers still read it as the faulted network.

``distance`` and ``minimal_directions`` still report the healthy
topology's values: a packet's *minimal* hop count is a property of the
intact network, and detours around faults are accounted as nonminimal
hops (which is how the paper frames fault tolerance).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = [
    "FaultyTopology",
    "is_strongly_connected",
    "random_channel_faults",
    "sample_fault_channels",
]


class FaultyTopology(Topology):
    """A topology with some channels failed (removed).

    Args:
        base: the healthy topology.
        failed: the channels considered dead.  Channels must belong to
            ``base``; a fault applies to one unidirectional channel (fail
            both directions explicitly for a broken link).
    """

    def __init__(self, base: Topology, failed: Iterable[Channel]):
        self.base = base
        self.failed: FrozenSet[Channel] = frozenset(failed)
        known = set(base.channels())
        unknown = self.failed - known
        if unknown:
            raise ValueError(f"channels not in the base topology: {unknown}")
        self._live: Dict[NodeId, Sequence[Channel]] = {
            node: self._surviving(node) for node in base.nodes()
        }

    @property
    def n_dims(self) -> int:
        return self.base.n_dims

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape

    def nodes(self):
        return self.base.nodes()

    def _surviving(self, node: NodeId) -> Sequence[Channel]:
        return tuple(
            ch for ch in self.base.out_channels(node) if ch not in self.failed
        )

    def out_channels(self, node: NodeId) -> Sequence[Channel]:
        live = self._live.get(node)
        # A miss is not a node of the base: let the base say so.
        return live if live is not None else self._surviving(node)

    def _hops(self, src: NodeId, dst: NodeId) -> int:
        return self.base._hops(src, dst)

    def minimal_directions(self, src: NodeId, dst: NodeId) -> tuple[Direction, ...]:
        return self.base.minimal_directions(src, dst)

    def __repr__(self) -> str:
        return f"FaultyTopology({self.base!r}, {len(self.failed)} failed)"


def is_strongly_connected(topology: Topology) -> bool:
    """Whether every node can still reach every other node.

    Strong connectivity of the directed channel graph: one forward BFS
    from an arbitrary root plus one BFS over the reversed graph — the
    root reaches everyone and everyone reaches the root iff the graph is
    strongly connected.
    """
    nodes = list(topology.nodes())
    if len(nodes) <= 1:
        return True
    forward: Dict[NodeId, List[NodeId]] = {node: [] for node in nodes}
    reverse: Dict[NodeId, List[NodeId]] = {node: [] for node in nodes}
    for node in nodes:
        for channel in topology.out_channels(node):
            forward[node].append(channel.dst)
            reverse[channel.dst].append(node)
    root = nodes[0]
    for adjacency in (forward, reverse):
        seen = {root}
        frontier = deque((root,))
        while frontier:
            here = frontier.popleft()
            for neighbor in adjacency[here]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != len(nodes):
            return False
    return True


def sample_fault_channels(
    topology: Topology,
    count: int,
    rng: random.Random,
    require_connected: bool = False,
    max_attempts: int = 20,
) -> List[Channel]:
    """Draw ``count`` distinct channels to fail, in sampling order.

    The shared sampling core of :func:`random_channel_faults` and
    :meth:`repro.resilience.FaultSchedule.random`: the first draw is
    exactly ``rng.sample(channels, count)``, so adding the connectivity
    option did not change any previously recorded fault set.

    Args:
        topology: the healthy topology.
        count: number of unidirectional channels to fail.
        rng: the (already seeded) random stream to draw from.
        require_connected: resample until the surviving network is
            strongly connected.
        max_attempts: bound on resampling before giving up.

    Raises:
        ValueError: when ``count`` exceeds the channel count, or when no
            connected sample is found within ``max_attempts`` draws.
    """
    channels = topology.channels()
    if count > len(channels):
        raise ValueError(f"cannot fail {count} of {len(channels)} channels")
    for _ in range(max(1, max_attempts)):
        failed = rng.sample(channels, count)
        if not require_connected:
            return failed
        if is_strongly_connected(FaultyTopology(topology, failed)):
            return failed
    raise ValueError(
        f"no sample of {count} channel faults left {topology!r} strongly "
        f"connected within {max_attempts} attempts; lower the fault count "
        "or pass require_connected=False"
    )


def random_channel_faults(
    topology: Topology,
    count: int,
    seed: int = 0,
    spare_local: bool = True,
    require_connected: bool = False,
    max_attempts: int = 20,
) -> FaultyTopology:
    """Fail ``count`` channels chosen uniformly at random.

    Args:
        topology: the healthy topology.
        count: number of unidirectional channels to fail.
        seed: RNG seed, for reproducible fault sets.
        spare_local: unused placeholder for symmetry with simulators that
            model local-channel faults; injection/ejection channels are
            not part of the topology and are never failed here.
        require_connected: resample (up to ``max_attempts`` draws) until
            the degraded network is strongly connected, and raise a
            :class:`ValueError` when no such sample is found.  Off by
            default: a disconnecting fault set is itself a measurement
            (the fault-tolerance sweep counts unroutable pairs), and the
            historical fault sets for a given seed stay identical.
        max_attempts: resampling bound used with ``require_connected``.

    Returns:
        The faulty topology.
    """
    rng = random.Random(seed)
    failed = sample_fault_channels(
        topology,
        count,
        rng,
        require_connected=require_connected,
        max_attempts=max_attempts,
    )
    return FaultyTopology(topology, failed)
