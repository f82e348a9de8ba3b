"""The k-ary n-cube extensions (Section 4.2) and the extra-channel
alternatives the paper compares against (Section 1).

* Both torus extensions — wraparound-on-first-hop and the
  negative-first virtual direction classification — are deadlock free
  beyond the 4-ary 2-cube the verify suite certifies, and deliver
  tornado traffic, the wraparound-exercising adversary.
* Lane-split xy/yx routing on a two-lane mesh repairs xy's transpose
  weakness (compare Figure 14).
* Dateline dimension-order routing on two lanes is *minimal* and
  deadlock free on a torus, which Section 4.2 shows is impossible
  without extra channels: on tornado traffic it travels no further
  than the nonminimal negative-first extension.

Virtual-channel topologies have no spec string, so their points are
built from instances through the engine factory.
"""

import pytest

from repro.api import SimulationConfig, make_routing, run
from repro.routing import DatelineTorusRouting, o1turn_routing
from repro.sim import make_simulator
from repro.topology import Mesh2D, Torus, VirtualChannelTopology
from repro.traffic import Workload
from repro.traffic.permutations import make_pattern
from repro.verify import PROVED, check_deadlock_freedom

TORNADO = SimulationConfig(
    warmup_cycles=800, measure_cycles=4000, drain_cycles=1500
)


def lanes_point(routing, pattern, load, config):
    topology = routing.topology
    workload = Workload(pattern=make_pattern(pattern, topology), offered_load=load)
    return make_simulator(routing, workload, config).run()


@pytest.mark.parametrize("name", ["xy+first-hop-wrap", "negative-first+first-hop-wrap"])
@pytest.mark.parametrize("k, n", [(5, 2), (3, 3)])
def test_first_hop_wrap_deadlock_free(name, k, n):
    torus = Torus(k, n)
    assert check_deadlock_freedom(torus, make_routing(name, torus)).verdict == PROVED


@pytest.mark.parametrize("name", ["negative-first-torus", "xy+first-hop-wrap"])
def test_torus_extensions_deliver_tornado(name):
    result = run(topology="torus:6x2", routing=name, pattern="tornado",
                 load=0.15, config=TORNADO).result
    assert not result.deadlocked
    assert result.total_delivered > 0


def test_lane_split_beats_xy_on_transpose():
    config = SimulationConfig(
        warmup_cycles=1000, measure_cycles=5000, drain_cycles=0
    )
    o1 = lanes_point(
        o1turn_routing(VirtualChannelTopology(Mesh2D(8, 8), 2)),
        "transpose", 0.8, config,
    )
    xy = run(topology="mesh:8x8", routing="xy", pattern="transpose",
             load=0.8, config=config).result
    assert o1.throughput_flits_per_usec > 1.3 * xy.throughput_flits_per_usec


def test_dateline_is_minimal_where_the_turn_model_detours():
    dateline = lanes_point(
        DatelineTorusRouting(VirtualChannelTopology(Torus(6, 2), 2)),
        "tornado", 0.15, TORNADO,
    )
    nf_torus = run(topology="torus:6x2", routing="negative-first-torus",
                   pattern="tornado", load=0.15, config=TORNADO).result
    assert not dateline.deadlocked and not nf_torus.deadlocked
    # Minimal routing's hop count is the tornado distance (2 on a
    # 6-ring); the nonminimal algorithm travels further.
    assert dateline.avg_hops <= nf_torus.avg_hops
