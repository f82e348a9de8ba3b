"""Flit-level wormhole network simulator (the Section 6 substrate)."""

from repro.sim.config import FLITS_PER_USEC, SimulationConfig
from repro.sim.engine import RoutingError, WormholeSimulator
from repro.sim.flatcore import (
    CompiledRoutes,
    FlatCoreUnsupported,
    FlatWormholeSimulator,
    make_simulator,
)
from repro.sim.packet import Packet
from repro.sim.resources import EJECTION, INJECTION, NETWORK, ChannelState
from repro.sim.simulator import simulate
from repro.sim.stats import SimulationResult, StatsCollector, percentile
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "SimulationConfig",
    "FLITS_PER_USEC",
    "WormholeSimulator",
    "RoutingError",
    "FlatWormholeSimulator",
    "FlatCoreUnsupported",
    "CompiledRoutes",
    "make_simulator",
    "Packet",
    "ChannelState",
    "NETWORK",
    "INJECTION",
    "EJECTION",
    "simulate",
    "SimulationResult",
    "StatsCollector",
    "percentile",
    "TraceEvent",
    "TraceRecorder",
]
