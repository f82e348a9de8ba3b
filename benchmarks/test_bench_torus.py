"""Experiment sec42-torus: the k-ary n-cube extensions (Section 4.2).

Both extensions — wraparound-on-first-hop and the negative-first virtual
direction classification — are strictly nonminimal and deadlock free;
the benchmark certifies them with the Dally-Seitz test on several tori
and simulates tornado traffic (the wraparound-exercising adversary).
"""

from benchmarks.conftest import run_once
from repro.routing import make_routing
from repro.sim import SimulationConfig, simulate
from repro.topology import Torus
from repro.verify import PROVED, check_deadlock_freedom


def test_bench_torus_deadlock_freedom(benchmark):
    def check():
        results = {}
        for k, n in ((4, 2), (5, 2), (3, 3)):
            torus = Torus(k, n)
            for name in ("negative-first-torus", "xy+first-hop-wrap",
                         "negative-first+first-hop-wrap"):
                results[(k, n, name)] = check_deadlock_freedom(
                    torus, make_routing(name, torus)
                ).verdict == PROVED
        return results

    results = benchmark(check)
    assert all(results.values())
    print(f"\nall torus algorithms deadlock free on {len(results)} configs")


def test_bench_torus_tornado_traffic(benchmark):
    torus = Torus(6, 2)
    config = SimulationConfig(
        warmup_cycles=800, measure_cycles=4000, drain_cycles=1200
    )

    def run():
        return {
            name: simulate(torus, name, "tornado", offered_load=0.15,
                           config=config)
            for name in ("negative-first-torus", "xy+first-hop-wrap")
        }

    results = run_once(benchmark, run)
    for name, result in results.items():
        print(f"\n{name}: {result.summary()}")
        assert not result.deadlocked
        assert result.total_delivered > 0
