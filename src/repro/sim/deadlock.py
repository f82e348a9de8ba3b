"""Deadlock demonstrations (Figures 1 and 4).

The paper motivates the turn model with Figure 1 — four packets turning
left into a circular wait — and warns with Figure 4 that prohibiting just
any one turn per abstract cycle is not enough.  This module stages both
failures in the simulator so the deadlock detector can be seen to fire,
and shows that a proper turn-model algorithm survives the identical
workload.

These are *dynamic* demonstrations; the static counterpart is
:func:`repro.verify.check_deadlock_freedom`, which decides the
Dally-Seitz channel-dependency condition on the compiled routing
relation and rejects the same routing relations a priori
(:func:`repro.core.channel_graph.routing_cdg` is only the object-level
definition its certificates are re-checked against).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.restrictions import figure4_restriction, fully_adaptive
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import TurnRestrictionRouting
from repro.sim.config import SimulationConfig
from repro.sim.engine import make_simulator
from repro.sim.stats import SimulationResult
from repro.topology.mesh import Mesh, Mesh2D
from repro.traffic.patterns import UniformTraffic
from repro.traffic.workload import SizeDistribution, Workload

__all__ = [
    "RoutableUniformTraffic",
    "unrestricted_adaptive_routing",
    "figure4_routing",
    "run_deadlock_demo",
    "southeast_shift_pattern",
    "run_figure4_demo",
]


def unrestricted_adaptive_routing(topology: Mesh) -> TurnRestrictionRouting:
    """Minimal adaptive routing with *no* prohibited turns (Figure 1).

    Maximally adaptive and unsafe: all left-turn and right-turn cycles
    remain, so packets can enter the circular wait of Figure 1.
    """
    return TurnRestrictionRouting(
        topology, fully_adaptive(topology.n_dims), minimal=True,
        name="unrestricted-adaptive",
    )


def figure4_routing(topology: Mesh) -> TurnRestrictionRouting:
    """Adaptive routing under Figure 4's faulty prohibition.

    Nonminimal mode is required: prohibiting east-to-south together with
    south-to-east leaves a packet that needs both moves without any
    minimal path, so the faulty algorithm must detour (another symptom of
    how badly chosen the pair is).  The remaining cycles still allow
    deadlock, which is the point of the demonstration.
    """
    return TurnRestrictionRouting(
        topology, figure4_restriction(), minimal=False, name="figure-4-faulty"
    )


class RoutableUniformTraffic(UniformTraffic):
    """Uniform traffic restricted to pairs the algorithm can route at all.

    Figure 4's faulty prohibition does not just allow deadlock — on a
    finite mesh it disconnects some corner destinations outright (a
    packet needing both east and south moves cannot make its final hop at
    the mesh edge).  The demo filters those pairs out so the run
    exercises the *deadlock* failure, not the connectivity one.
    """

    name = "uniform-routable"

    def __init__(self, routing: RoutingAlgorithm):
        super().__init__(routing.topology)
        self._routable = {
            src: [
                dst
                for dst in self.topology.nodes()
                if dst != src and routing.route(None, src, dst)
            ]
            for src in self.topology.nodes()
        }

    def destination(self, src, rng):
        choices = self._routable[src]
        if not choices:
            return None
        return choices[rng.randrange(len(choices))]

    def destination_distribution(self, src):
        choices = self._routable[src]
        weight = 1.0 / len(choices) if choices else 0.0
        return [(dst, weight) for dst in choices]


def run_deadlock_demo(
    routing: Union[RoutingAlgorithm, None] = None,
    mesh_side: int = 4,
    offered_load: float = 0.5,
    packet_flits: int = 16,
    max_cycles: int = 20_000,
    detector_threshold: int = 500,
    seed: int = 3,
) -> SimulationResult:
    """Drive a routing algorithm into (or through) heavy random traffic.

    With the default unrestricted adaptive routing the run ends with
    ``result.deadlocked == True`` within a few hundred cycles; with any of
    the turn-model algorithms the same workload completes deadlock free.

    Args:
        routing: algorithm under test; defaults to the unsafe
            unrestricted adaptive routing on a fresh mesh.
        mesh_side: side of the square mesh (used when ``routing`` is
            ``None``).
        offered_load: injection rate, deliberately high.
        packet_flits: fixed packet size — long enough that a packet spans
            several routers, the precondition for a circular wait.
        max_cycles: simulation horizon.
        detector_threshold: stall cycles before deadlock is declared.
        seed: workload seed (the demo is deterministic given the seed).

    Returns:
        The run's result; check ``result.deadlocked``.
    """
    if routing is None:
        routing = unrestricted_adaptive_routing(Mesh2D(mesh_side, mesh_side))
    topology = routing.topology
    workload = Workload(
        pattern=RoutableUniformTraffic(routing),
        sizes=SizeDistribution.fixed(packet_flits),
        offered_load=offered_load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=max_cycles,
        drain_cycles=0,
        deadlock_threshold=detector_threshold,
    )
    return make_simulator(routing, workload, config).run()


def southeast_shift_pattern(routing: RoutingAlgorithm, shift: int = 1):
    """Every node sends ``shift`` hops east and ``shift`` hops south.

    Against Figure 4's faulty prohibition this is adversarial: with both
    east-to-south and south-to-east prohibited, a southeast-bound packet
    must detour through the remaining six turns — exactly the turns whose
    composition recreates the two abstract cycles (Figure 4c) — so
    dependency loops form quickly.  Pairs the faulty algorithm cannot
    route at all (near the mesh edge) are dropped.
    """
    from repro.traffic.patterns import PermutationTraffic

    topology = routing.topology
    k_x, k_y = topology.shape

    def permute(node):
        x, y = node
        dest = ((x + shift) % k_x, (y - shift) % k_y)
        if dest == node or not routing.route(None, node, dest):
            return node
        return dest

    return PermutationTraffic(topology, permute, "southeast-shift")


def run_figure4_demo(
    mesh_side: int = 5,
    offered_load: float = 0.8,
    packet_flits: int = 24,
    max_cycles: int = 12_000,
    detector_threshold: int = 500,
    seed: int = 0,
) -> SimulationResult:
    """Deadlock Figure 4's faulty algorithm with southeast-shift traffic.

    Returns a result with ``deadlocked == True`` for the default
    parameters; running any valid turn-model algorithm (e.g. west-first)
    on the same workload completes deadlock free — see the companion
    tests.
    """
    routing = figure4_routing(Mesh2D(mesh_side, mesh_side))
    workload = Workload(
        pattern=southeast_shift_pattern(routing),
        sizes=SizeDistribution.fixed(packet_flits),
        offered_load=offered_load,
        seed=seed,
    )
    config = SimulationConfig(
        warmup_cycles=0,
        measure_cycles=max_cycles,
        drain_cycles=0,
        deadlock_threshold=detector_threshold,
    )
    return make_simulator(routing, workload, config).run()
