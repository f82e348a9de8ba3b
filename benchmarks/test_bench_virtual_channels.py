"""Ablation: the extra-channel alternatives the paper compares against.

Section 1: other approaches "achieve adaptiveness and deadlock freedom at
the expense of adding physical or virtual channels".  Two classics on our
virtual-channel substrate:

* lane-split xy/yx routing on a two-lane mesh repairs xy's transpose
  weakness (compare Figure 14);
* dateline dimension-order routing makes *minimal* deadlock-free torus
  routing possible — the Section 4.2 impossibility is specific to
  networks without extra channels.
"""

from benchmarks.conftest import run_once
from repro.routing import DatelineTorusRouting, o1turn_routing
from repro.sim import SimulationConfig, simulate
from repro.topology import Mesh2D, Torus, VirtualChannelTopology
from repro.traffic.permutations import make_pattern
from repro.verify import PROVED, check_deadlock_freedom


def test_bench_lane_split_vs_xy_on_transpose(benchmark):
    mesh = Mesh2D(8, 8)
    vc = VirtualChannelTopology(mesh, 2)
    config = SimulationConfig(
        warmup_cycles=1000, measure_cycles=5000, drain_cycles=0
    )

    def run():
        o1 = simulate(
            vc, o1turn_routing(vc), make_pattern("transpose", vc), 0.8,
            config=config,
        )
        xy = simulate(mesh, "xy", "transpose", 0.8, config=config)
        return o1, xy

    o1, xy = run_once(benchmark, run)
    print(f"\no1turn (2 lanes): {o1.summary()}")
    print(f"xy   (no lanes): {xy.summary()}")
    assert o1.throughput_flits_per_usec > 1.3 * xy.throughput_flits_per_usec
    benchmark.extra_info["o1turn"] = round(o1.throughput_flits_per_usec, 1)
    benchmark.extra_info["xy"] = round(xy.throughput_flits_per_usec, 1)


def test_bench_dateline_minimal_torus(benchmark):
    def run():
        results = {}
        for k, n in ((4, 2), (5, 2)):
            vc = VirtualChannelTopology(Torus(k, n), 2)
            routing = DatelineTorusRouting(vc)
            results[(k, n)] = check_deadlock_freedom(vc, routing).verdict == PROVED
        return results

    results = benchmark(run)
    assert all(results.values())
    print(f"\ndateline DOR minimal + deadlock free on: {list(results)}")


def test_bench_dateline_tornado_throughput(benchmark):
    # Tornado is the classic adversary where minimality matters: the
    # nonminimal Section 4.2 algorithm pays detours that the dateline
    # algorithm's wraparounds avoid.
    torus = Torus(6, 2)
    vc = VirtualChannelTopology(torus, 2)
    config = SimulationConfig(
        warmup_cycles=800, measure_cycles=4000, drain_cycles=1500
    )

    def run():
        dateline = simulate(
            vc, DatelineTorusRouting(vc), make_pattern("tornado", vc), 0.15,
            config=config,
        )
        nf_torus = simulate(
            torus, "negative-first-torus", "tornado", 0.15, config=config
        )
        return dateline, nf_torus

    dateline, nf_torus = run_once(benchmark, run)
    print(f"\ndateline (minimal, 2 lanes): {dateline.summary()} "
          f"hops={dateline.avg_hops:.2f}")
    print(f"nf-torus (nonminimal, 1 lane): {nf_torus.summary()} "
          f"hops={nf_torus.avg_hops:.2f}")
    assert not dateline.deadlocked and not nf_torus.deadlocked
    # Minimal routing's hop count is the tornado distance (2 on a 6-ring);
    # the nonminimal algorithm travels further.
    assert dateline.avg_hops <= nf_torus.avg_hops
