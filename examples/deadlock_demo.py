#!/usr/bin/env python
"""Watch wormhole deadlock happen — and the turn model prevent it.

Three demonstrations:

1. Figure 1: minimal adaptive routing with *no* prohibited turns drives a
   4x4 mesh into deadlock within a few hundred cycles.
2. Figure 4: prohibiting one turn per abstract cycle is not enough — the
   east-south inverse pair leaves both cycles intact, and southeast-shift
   traffic deadlocks it.  The same workload completes under west-first.
3. The static counterpart: the Dally-Seitz channel-dependency check
   rejects both faulty relations a priori and certifies the turn-model
   algorithms.

Run:  python examples/deadlock_demo.py
"""

from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.deadlock import (
    figure4_routing,
    run_deadlock_demo,
    run_figure4_demo,
    southeast_shift_pattern,
    unrestricted_adaptive_routing,
)
from repro.topology import Mesh2D
from repro.traffic.workload import SizeDistribution, Workload
from repro.verify import PROVED, check_deadlock_freedom


def dynamic_demos() -> None:
    print("=== Dynamic demonstrations (simulator deadlock detector) ===")
    result = run_deadlock_demo()
    print(
        f"Figure 1 - unrestricted adaptive routing: "
        f"{'DEADLOCKED' if result.deadlocked else 'survived'} "
        f"after {result.total_delivered} deliveries"
    )

    for name in ("west-first", "negative-first"):
        routing = make_routing(name, Mesh2D(4, 4))
        result = run_deadlock_demo(routing=routing)
        print(
            f"         {name} on the same workload: "
            f"{'DEADLOCKED' if result.deadlocked else 'survived'} "
            f"({result.total_delivered} deliveries)"
        )

    result = run_figure4_demo()
    print(
        f"Figure 4 - faulty east/south prohibition under southeast-shift: "
        f"{'DEADLOCKED' if result.deadlocked else 'survived'}"
    )

    mesh = Mesh2D(5, 5)
    west_first = make_routing("west-first", mesh)
    workload = Workload(
        pattern=southeast_shift_pattern(west_first),
        sizes=SizeDistribution.fixed(24),
        offered_load=0.8,
        seed=0,
    )
    config = SimulationConfig(
        warmup_cycles=0, measure_cycles=12_000, drain_cycles=0,
        deadlock_threshold=500,
    )
    result = WormholeSimulator(west_first, workload, config).run()
    print(
        f"         west-first on the same workload: "
        f"{'DEADLOCKED' if result.deadlocked else 'survived'} "
        f"({result.total_delivered} deliveries)"
    )


def static_checks() -> None:
    print()
    print("=== Static checks (Dally-Seitz channel dependency graph) ===")
    mesh = Mesh2D(4, 4)
    for label, routing in (
        ("unrestricted adaptive", unrestricted_adaptive_routing(mesh)),
        ("figure-4 faulty pair", figure4_routing(mesh)),
        ("west-first", make_routing("west-first", mesh)),
        ("north-last", make_routing("north-last", mesh)),
        ("negative-first", make_routing("negative-first", mesh)),
        ("xy", make_routing("xy", mesh)),
    ):
        result = check_deadlock_freedom(mesh, routing)
        if result.verdict == PROVED:
            print(f"{label:24s} channel dependency graph acyclic: SAFE")
        else:
            cycle = result.certificate.data["channels"]
            print(
                f"{label:24s} dependency cycle of {len(cycle)} channels: UNSAFE"
            )


if __name__ == "__main__":
    dynamic_demos()
    static_checks()
