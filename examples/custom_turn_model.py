#!/usr/bin/env python
"""Design your own routing algorithm with the turn model.

Walks the six steps of Section 2 interactively:

1-3. Enumerate the directions, turns, and abstract cycles of a 2D mesh.
4.   Pick one turn to prohibit from each cycle — here the "south-last"
     combination (one of the twelve valid choices that is *not* among the
     paper's three canonical classes' representatives) — and let the
     model verify it breaks every cycle, complex ones included.
6.   Ask the model for the maximal set of safe 180-degree turns.

The resulting restriction drives the generic turn-table router, which is
then certified deadlock free and simulated against xy on hotspot traffic.

Run:  python examples/custom_turn_model.py
"""

from repro.core.directions import EAST, NORTH, SOUTH, WEST
from repro.core.model import TurnModel
from repro.core.turns import Turn
from repro.routing import TurnRestrictionRouting, make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import HotspotTraffic, Workload
from repro.verify import PROVED, check_deadlock_freedom


def main() -> None:
    model = TurnModel(2)
    print("Step 1 - directions:", ", ".join(map(str, model.directions())))
    print(f"Step 2 - {len(model.turns())} ninety-degree turns")
    print(f"Step 3 - {len(model.cycles())} abstract cycles:")
    for cycle in model.cycles():
        print("   ", " -> ".join(str(t) for t in cycle))

    # Step 4: prohibit south->west (clockwise cycle) and south->east
    # (counterclockwise cycle): "south-first" — to travel south a packet
    # must start south.  This is the 180-degree rotation of north-last.
    prohibited = [Turn(SOUTH, WEST), Turn(SOUTH, EAST)]
    restriction = model.restriction(prohibited, name="south-first")
    print(f"\nStep 4 - prohibiting: {', '.join(map(str, prohibited))}")
    print("         validated: breaks every cycle, deadlock free")
    print(
        "Step 6 - safe reversals added:",
        ", ".join(sorted(map(str, restriction.allowed_reversals))) or "none",
    )

    mesh = Mesh2D(8, 8)
    routing = TurnRestrictionRouting(mesh, restriction, minimal=True)
    assert check_deadlock_freedom(mesh, routing).verdict == PROVED
    print("\nDally-Seitz check on the 8x8 mesh: acyclic (deadlock free)")

    # Hotspot traffic: 20% of messages target (6, 6).
    config = SimulationConfig(
        warmup_cycles=1_000, measure_cycles=6_000, drain_cycles=2_000
    )
    print("\nHotspot traffic (20% to node (6,6)), offered load 0.15:")
    print(f"{'algorithm':14s} {'throughput':>12s} {'latency':>10s}")
    for name, algorithm in (
        ("xy", make_routing("xy", mesh)),
        ("south-first", routing),
    ):
        workload = Workload(
            pattern=HotspotTraffic(mesh, hotspot=(6, 6), hotspot_fraction=0.2),
            offered_load=0.15,
        )
        result = WormholeSimulator(algorithm, workload, config).run()
        print(
            f"{name:14s} {result.throughput_flits_per_usec:9.1f} fl/us "
            f"{result.avg_latency_usec:8.2f} us"
        )
    print("\nThe derived south-first algorithm is one of the twelve valid")
    print("prohibitions of Section 3 (a rotation of the north-last class).")


if __name__ == "__main__":
    main()
