"""Message generation: arrival process and packet sizes (Section 6).

The paper's processors generate messages at time intervals chosen from a
negative exponential distribution; each message is one packet of 10 or 200
flits with equal probability.  :class:`Workload` bundles the arrival
process, size distribution, and traffic pattern, and exposes one seeded
:class:`NodeSource` per node, which the simulator polls on the cycles its
next message arrives.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Tuple

from repro.topology.channels import NodeId
from repro.traffic.patterns import TrafficPattern

__all__ = ["SizeDistribution", "PAPER_SIZES", "Workload", "NodeSource"]


@dataclass(frozen=True)
class SizeDistribution:
    """A discrete distribution of packet sizes in flits.

    Attributes:
        choices: (size, probability) pairs; probabilities must sum to 1.
    """

    choices: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError("size distribution needs at least one choice")
        if any(size < 1 for size, _ in self.choices):
            raise ValueError(f"packet sizes must be positive: {self.choices}")
        total = sum(p for _, p in self.choices)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        # Precompute the cumulative table once so sample() is a bisect
        # instead of a linear scan.  The running sum is accumulated in
        # choice order, exactly as the scan did, so the table holds the
        # very same float partial sums and seeded draw streams are
        # unchanged.  (object.__setattr__ because the dataclass is
        # frozen; the table is derived state, not a field.)
        sizes = []
        cumulative = []
        running = 0.0
        for size, probability in self.choices:
            running += probability
            sizes.append(size)
            cumulative.append(running)
        object.__setattr__(self, "_sizes", tuple(sizes))
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    @property
    def mean(self) -> float:
        """Expected packet size in flits."""
        return sum(size * p for size, p in self.choices)

    def sample(self, rng: random.Random) -> int:
        """Draw one packet size.

        Binary-searches the precomputed cumulative table; equivalent to
        (and bit-identical with) scanning for the first entry whose
        partial sum exceeds the roll, with the last size as the fallback
        against floating-point shortfall in the final partial sum.
        """
        roll = rng.random()
        index = bisect_right(self._cumulative, roll)
        sizes = self._sizes
        return sizes[index] if index < len(sizes) else sizes[-1]

    @classmethod
    def fixed(cls, size: int) -> "SizeDistribution":
        """Every packet has the same size."""
        return cls(((size, 1.0),))


#: The paper's bimodal distribution: 10 or 200 flits, equal probability.
PAPER_SIZES = SizeDistribution(((10, 0.5), (200, 0.5)))


class NodeSource:
    """Poisson message source for one node.

    Interarrival times are negative-exponential with the node's mean;
    arrival times are kept as floats and a message is released once the
    simulation clock passes its arrival time.
    """

    def __init__(
        self,
        node: NodeId,
        pattern: TrafficPattern,
        sizes: SizeDistribution,
        messages_per_cycle: float,
        rng: random.Random,
    ):
        self.node = node
        self._pattern = pattern
        self._sizes = sizes
        self._rate = messages_per_cycle
        self._rng = rng
        self._next_arrival = (
            float("inf") if messages_per_cycle <= 0
            else rng.expovariate(messages_per_cycle)
        )

    @property
    def next_arrival(self) -> float:
        """Arrival time of the next message (``inf`` for a silent source).

        The simulator keys its arrival heap on this and polls the source
        only once the clock has reached it: :meth:`poll` before then
        returns nothing and draws nothing.
        """
        return self._next_arrival

    def poll(self, cycle: int) -> list[Tuple[NodeId, int, float]]:
        """Messages arriving by ``cycle``: (destination, size, arrival time).

        Each arrival draws, in order, its destination, its size (only
        when the pattern emitted a destination; an arrival it declines is
        discarded) and the gap to the next arrival, all from this
        source's own stream — the simulator's only arrival stream, so
        this draw order is part of every seeded result.
        """
        arrivals: list[Tuple[NodeId, int, float]] = []
        arrival = self._next_arrival
        if arrival > cycle:
            return arrivals
        rng = self._rng
        node = self.node
        destination = self._pattern.destination
        sample = self._sizes.sample
        expovariate = rng.expovariate
        rate = self._rate
        append = arrivals.append
        while arrival <= cycle:
            dest = destination(node, rng)
            if dest is not None:
                append((dest, sample(rng), arrival))
            arrival += expovariate(rate)
        self._next_arrival = arrival
        return arrivals


@dataclass
class Workload:
    """A complete workload: pattern, sizes, and per-node injection rate.

    Attributes:
        pattern: the traffic pattern.
        sizes: packet size distribution; defaults to the paper's bimodal
            10/200-flit mix.
        offered_load: requested injection rate in flits per node per
            cycle, as a fraction of channel bandwidth (1.0 means every
            node tries to inject a full channel's worth of flits).
        seed: base RNG seed; each node derives an independent stream.
    """

    pattern: TrafficPattern
    sizes: SizeDistribution = PAPER_SIZES
    offered_load: float = 0.1
    seed: int = 1

    def __post_init__(self) -> None:
        if self.offered_load < 0:
            raise ValueError(f"offered load must be non-negative: {self.offered_load}")

    @property
    def messages_per_node_per_cycle(self) -> float:
        """The Poisson rate implied by the offered load and mean size."""
        return self.offered_load / self.sizes.mean

    def sources(self) -> list[NodeSource]:
        """One seeded message source per node of the topology."""
        rate = self.messages_per_node_per_cycle
        return [
            NodeSource(
                node,
                self.pattern,
                self.sizes,
                rate,
                random.Random(f"{self.seed}/{index}"),
            )
            for index, node in enumerate(self.pattern.topology.nodes())
        ]
