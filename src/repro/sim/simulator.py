"""One-call convenience API over the wormhole simulator.

``simulate(...)`` wires together a topology, a routing algorithm, a traffic
pattern, and a workload, runs the engine, and returns the
:class:`~repro.sim.stats.SimulationResult`.  This is the entry point the
examples and the benchmark harness use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_routing
from repro.sim.config import SimulationConfig
from repro.sim.engine import make_simulator
from repro.sim.stats import SimulationResult
from repro.topology.base import Topology
from repro.traffic.patterns import TrafficPattern
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution, Workload

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.obs.metrics import MetricsCollector

__all__ = ["simulate"]


def simulate(
    topology: Topology,
    routing: Union[str, RoutingAlgorithm],
    pattern: Union[str, TrafficPattern],
    offered_load: float,
    sizes: SizeDistribution = PAPER_SIZES,
    config: Optional[SimulationConfig] = None,
    seed: int = 1,
    obs: Optional["MetricsCollector"] = None,
) -> SimulationResult:
    """Simulate one (routing, pattern, load) point and return its result.

    Args:
        topology: the network to simulate.
        routing: a routing algorithm instance, or a registry name such as
            ``"xy"``, ``"negative-first"``, or ``"p-cube"``.
        pattern: a traffic pattern instance, or a name such as
            ``"uniform"``, ``"transpose"``, or ``"reverse-flip"``.
        offered_load: requested injection rate in flits per node per
            cycle (fraction of channel bandwidth).
        sizes: packet-size distribution; defaults to the paper's
            10-or-200-flit bimodal mix.
        config: simulator configuration; defaults reproduce Section 6.
        seed: workload RNG seed.
        obs: optional :class:`~repro.obs.metrics.MetricsCollector`;
            bit-invisible sampling of channel utilization, latency, and
            throughput (read its ``summary()`` after the call).

    Returns:
        The run's :class:`SimulationResult`.
    """
    if isinstance(routing, str):
        routing = make_routing(routing, topology)
    if isinstance(pattern, str):
        pattern = make_pattern(pattern, topology)
    workload = Workload(
        pattern=pattern, sizes=sizes, offered_load=offered_load, seed=seed
    )
    return make_simulator(routing, workload, config, obs=obs).run()
