"""Flit-level wormhole network simulator (the Section 6 substrate)."""

from repro.sim.config import FLITS_PER_USEC, SimulationConfig
from repro.sim.engine import RoutingError, WormholeSimulator, make_simulator
from repro.sim.ids import CompiledRoutes
from repro.sim.packet import Packet
from repro.sim.stats import SimulationResult, StatsCollector, percentile
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "SimulationConfig",
    "FLITS_PER_USEC",
    "WormholeSimulator",
    "RoutingError",
    "CompiledRoutes",
    "make_simulator",
    "Packet",
    "SimulationResult",
    "StatsCollector",
    "percentile",
    "TraceEvent",
    "TraceRecorder",
]
