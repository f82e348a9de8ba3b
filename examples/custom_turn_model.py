#!/usr/bin/env python
"""Design your own routing algorithm with the turn model.

Walks the six steps of Section 2 interactively:

1-3. Enumerate the directions, turns, and abstract cycles of a 2D mesh.
4.   Pick one turn to prohibit from each cycle — here the "south-last"
     combination (one of the twelve valid choices that is *not* among the
     paper's three canonical classes' representatives) — and check on the
     target mesh that it breaks every cycle, complex ones included.
6.   Add the maximal set of safe 180-degree turns.

The resulting restriction drives the generic turn-table router, which is
then certified deadlock free and simulated against xy on hotspot traffic.

Run:  python examples/custom_turn_model.py
"""

from repro.core import (
    EAST,
    SOUTH,
    WEST,
    Turn,
    TurnRestriction,
    abstract_cycles,
    all_directions,
    maximal_reversal_extension,
    ninety_degree_turns,
    restriction_is_deadlock_free,
)
from repro.routing import TurnRestrictionRouting, make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import HotspotTraffic, Workload
from repro.verify import PROVED, check_deadlock_freedom


def main() -> None:
    print("Step 1 - directions:", ", ".join(map(str, all_directions(2))))
    print(f"Step 2 - {len(ninety_degree_turns(2))} ninety-degree turns")
    print(f"Step 3 - {len(abstract_cycles(2))} abstract cycles:")
    for cycle in abstract_cycles(2):
        print("   ", " -> ".join(str(t) for t in cycle))

    # Step 4: prohibit south->west (clockwise cycle) and south->east
    # (counterclockwise cycle): "south-first" — to travel south a packet
    # must start south.  This is the 180-degree rotation of north-last.
    mesh = Mesh2D(8, 8)
    prohibited = [Turn(SOUTH, WEST), Turn(SOUTH, EAST)]
    restriction = TurnRestriction(2, frozenset(prohibited), name="south-first")
    assert restriction_is_deadlock_free(mesh, restriction)
    print(f"\nStep 4 - prohibiting: {', '.join(map(str, prohibited))}")
    print("         validated: breaks every cycle, deadlock free")
    restriction = maximal_reversal_extension(mesh, restriction)
    print(
        "Step 6 - safe reversals added:",
        ", ".join(sorted(map(str, restriction.allowed_reversals))) or "none",
    )

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
