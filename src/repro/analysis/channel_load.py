"""Static channel-load analysis.

Propagates each source-destination flow through the compiled routing
relation the provers read, splitting equally over the offered candidates
at every hop, per destination in topological order: exact for every
relation whose per-destination graph is acyclic (every deadlock-free one,
minimal or not), refused for the others.  The most loaded channel
bounds the network's saturation throughput: a channel carrying ``L``
units of flow saturates when each active source injects ``1/L`` flits per
cycle.  The bound is ideal — wormhole blocking keeps real networks below
it, adaptive algorithms closer than nonadaptive ones — which is exactly
what comparing it with the simulator's measured plateaus shows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

from repro.core.digraph import mask_ids
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology
from repro.topology.channels import Channel
from repro.traffic.patterns import TrafficPattern
from repro.verify.deadlock import route_closure

__all__ = ["ChannelLoadReport", "channel_loads", "load_report"]


@dataclass(frozen=True)
class ChannelLoadReport:
    """Summary of a static load analysis.

    Attributes:
        max_load: flow units on the most loaded channel (one unit = one
            active source's full rate).
        mean_load: mean over channels carrying any flow.
        loaded_channels: channels carrying any flow.
        total_channels: channels in the network.
        active_sources: sources generating traffic under the pattern.
        saturation_bound: ideal per-active-source injection rate
            (flits/node/cycle) at which the hottest channel reaches unit
            utilization: ``1 / max_load``.
    """

    max_load: float
    mean_load: float
    loaded_channels: int
    total_channels: int
    active_sources: int

    @property
    def saturation_bound(self) -> float:
        if self.max_load <= 0:
            return float("inf")
        return 1.0 / self.max_load

    def __str__(self) -> str:
        return (
            f"max load {self.max_load:.2f} (saturation bound "
            f"{self.saturation_bound:.3f} flits/node/cycle), mean "
            f"{self.mean_load:.2f} over {self.loaded_channels}/"
            f"{self.total_channels} channels"
        )


def channel_loads(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    pattern: TrafficPattern,
) -> Dict[Channel, float]:
    """Expected load per channel under equal-split adaptive flow.

    Each active source emits one unit of flow per destination weight; at
    every router the incoming flow divides equally among the candidates
    the algorithm offers.  Deterministic algorithms reduce to pure path
    accumulation.  Flow that reaches a dead end stays on it.

    Raises:
        ValueError: if the relation toward a destination the pattern uses
            has a cycle (named in the message), so the flow is undefined.
    """
    closure = route_closure(topology, algorithm)
    index = closure.compiled.index
    lookup = closure.compiled.lookup
    injected: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for src in topology.nodes():
        for dest, weight in pattern.destination_distribution(src):
            if dest != src and weight > 0:
                injected[index.node_id[dest]][index.inj_base + index.node_id[src]] += weight
    loads = [0.0] * index.num_channels
    for dest_idx, sources in sorted(injected.items()):
        flow: Dict[int, float] = defaultdict(float)
        for injection, weight in sources.items():
            outs = lookup(injection, dest_idx)
            for out in outs:
                flow[out] += weight / len(outs)
        predecessors: Dict[int, List[int]] = {}
        for front in mask_ids(closure.reached[dest_idx]):
            if index.dest_node_id[front] != dest_idx:
                for out in lookup(front, dest_idx):
                    predecessors.setdefault(out, []).append(front)
        waiting = {ident: len(preds) for ident, preds in predecessors.items()}
        # Kahn's algorithm: a channel splits its flow once all of it is in.
        order = [ident for ident in mask_ids(closure.reached[dest_idx]) if ident not in waiting]
        for front in order:  # grows as channels become ready
            loads[front] += flow[front]
            outs = () if index.dest_node_id[front] == dest_idx else lookup(front, dest_idx)
            for out in outs:
                flow[out] += flow[front] / len(outs)
                waiting[out] -= 1
                if not waiting[out]:
                    order.append(out)
        stuck = next((ident for ident, count in waiting.items() if count), None)
        if stuck is not None:
            # Every unfinished channel has an unfinished predecessor, so
            # a walk back through them is on a cycle once it is this long.
            for _ in waiting:
                stuck = next(pred for pred in predecessors[stuck] if waiting.get(pred))
            raise ValueError(
                f"equal-split flow is undefined for {algorithm.name}: its relation "
                f"toward {index.nodes[dest_idx]} has a cycle through channel "
                f"{index.channels[stuck]}"
            )
    return {channel: load for channel, load in zip(index.channels, loads) if load > 0}


def load_report(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    pattern: TrafficPattern,
) -> ChannelLoadReport:
    """Run the analysis and summarize it."""
    loads = channel_loads(topology, algorithm, pattern)
    loaded = [value for value in loads.values() if value > 1e-12]
    active = len(pattern.active_sources())
    return ChannelLoadReport(
        max_load=max(loaded) if loaded else 0.0,
        mean_load=sum(loaded) / len(loaded) if loaded else 0.0,
        loaded_channels=len(loaded),
        total_channels=topology.num_channels,
        active_sources=active,
    )
