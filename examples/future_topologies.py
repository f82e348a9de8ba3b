#!/usr/bin/env python
"""The turn model beyond 90-degree turns (Section 7 future work).

The paper closes by proposing the turn model be applied "to other
topologies, such as hexagonal, octagonal, and cube-connected cycle
networks ... In such topologies, the turns are not necessarily 90-degrees
and the abstract cycles are not necessarily formed by four turns."

This example realizes that program for the first two: hexagonal and
octagonal meshes with negative-first routing, certified deadlock free
both by the Dally-Seitz dependency check and by the generalized Theorem 5
potential numbering, then simulated against axis-order baselines that
ignore the diagonal channels.

Run:  python examples/future_topologies.py
"""

from repro.api import SimulationConfig, run
from repro.core.numbering import numbering_violations, potential_numbering
from repro.routing import HexNegativeFirstRouting, OctNegativeFirstRouting
from repro.topology import HexMesh, OctMesh
from repro.verify import PROVED, check_deadlock_freedom


def certify(label, topology, routing, potential):
    safe = check_deadlock_freedom(topology, routing).verdict == PROVED
    numbered = not numbering_violations(
        topology, routing, potential_numbering(topology, potential), "increasing"
    )
    print(f"  {label:22s} Dally-Seitz acyclic: {safe}   "
          f"Theorem-5-style numbering: {numbered}")
    assert safe and numbered


def uniform_point(topology, routing, config):
    return run(topology=topology, routing=routing, pattern="uniform",
               load=0.12, config=config).result


def main() -> None:
    config = SimulationConfig(
        warmup_cycles=800, measure_cycles=4_000, drain_cycles=1_500
    )

    print("Hexagonal 6x6 mesh (six directions, 60/120-degree turns):")
    hexm = HexMesh(6, 6)
    hex_nf = HexNegativeFirstRouting(hexm)
    certify("hex-negative-first", hexm, hex_nf, sum)
    nf = uniform_point("hex:6x6", "hex-negative-first", config)
    ab = uniform_point("hex:6x6", "hex-ab-order", config)
    print(f"  uniform traffic: NF hops {nf.avg_hops:.2f} vs axis-order "
          f"{ab.avg_hops:.2f} (diagonals shorten paths)")

    print()
    print("Octagonal 6x6 mesh (eight directions, 45-degree turns):")
    octm = OctMesh(6, 6)
    oct_nf = OctNegativeFirstRouting(octm)
    certify("oct-negative-first", octm, oct_nf, octm.potential)
    nf = uniform_point("oct:6x6", "oct-negative-first", config)
    ab = uniform_point("oct:6x6", "oct-ab-order", config)
    print(f"  uniform traffic: NF hops {nf.avg_hops:.2f} vs axis-order "
          f"{ab.avg_hops:.2f}")
    print()
    print("Note the octagonal case needs a lexicographic potential "
          "(phi = n*a + b): the anti-diagonal leaves the coordinate sum "
          "unchanged, exactly the kind of subtlety the paper anticipated.")


if __name__ == "__main__":
    main()
