#!/usr/bin/env python
"""Virtual channels: the "extra channels" alternative to the turn model.

The paper keeps the network channel set fixed and extracts adaptiveness
from the turns; the competing school adds virtual channels.  This example
runs both classics on our VC substrate:

1. **Lane-split xy/yx (o1turn)** on a two-lane 8x8 mesh — repairs xy
   routing's transpose pathology without any prohibited turn, at the
   cost of doubled buffers.
2. **Dateline dimension-order routing** on a two-lane 6-ary 2-cube —
   *minimal* deadlock-free torus routing, which Section 4.2 shows is
   impossible without extra channels.  Compared against the paper's own
   nonminimal negative-first torus extension on tornado traffic.

Run:  python examples/virtual_channels.py
"""

from repro.api import SimulationConfig, run
from repro.routing import DatelineTorusRouting, o1turn_routing
from repro.sim import make_simulator
from repro.topology import Mesh2D, Torus, VirtualChannelTopology
from repro.traffic import Workload
from repro.traffic.permutations import make_pattern
from repro.verify import PROVED, check_deadlock_freedom


def lanes_point(vc, routing, pattern, load, config):
    """One point on a virtual-channel topology.  It has no spec string,
    so the simulator is built from the routing instance directly."""
    workload = Workload(pattern=make_pattern(pattern, vc), offered_load=load)
    return make_simulator(routing, workload, config).run()


def lane_split_demo() -> None:
    mesh = Mesh2D(8, 8)
    vc = VirtualChannelTopology(mesh, 2)
    o1 = o1turn_routing(vc)
    assert check_deadlock_freedom(vc, o1).verdict == PROVED
    config = SimulationConfig(
        warmup_cycles=1_000, measure_cycles=6_000, drain_cycles=0
    )
    print("Matrix transpose at load 0.8 (deep saturation), 8x8 mesh:")
    xy = run(topology="mesh:8x8", routing="xy", pattern="transpose",
             load=0.8, config=config).result
    o1r = lanes_point(vc, o1, "transpose", 0.8, config)
    nf = run(topology="mesh:8x8", routing="negative-first", pattern="transpose",
             load=0.8, config=config).result
    for label, result in (("xy (1 lane)", xy), ("o1turn (2 lanes)", o1r),
                          ("negative-first (1 lane)", nf)):
        print(f"  {label:24s} {result.throughput_flits_per_usec:7.1f} flits/us")
    print("Both remedies beat xy; the turn model gets there without the")
    print("extra buffers, o1turn without prohibiting any turn.")


def dateline_demo() -> None:
    torus = Torus(6, 2)
    vc = VirtualChannelTopology(torus, 2)
    dateline = DatelineTorusRouting(vc)
    assert check_deadlock_freedom(vc, dateline).verdict == PROVED
    config = SimulationConfig(
        warmup_cycles=800, measure_cycles=4_000, drain_cycles=1_500
    )
    print()
    print("Tornado traffic on a 6-ary 2-cube at load 0.15:")
    dl = lanes_point(vc, dateline, "tornado", 0.15, config)
    nf = run(topology="torus:6x2", routing="negative-first-torus",
             pattern="tornado", load=0.15, config=config).result
    print(f"  dateline DOR (minimal, 2 lanes):      {dl.summary()}")
    print(f"    mean hops {dl.avg_hops:.2f} (the tornado distance)")
    print(f"  negative-first torus (nonminimal):    {nf.summary()}")
    print(f"    mean hops {nf.avg_hops:.2f} (detours instead of lanes)")


if __name__ == "__main__":
    lane_split_demo()
    dateline_demo()
