#!/usr/bin/env python
"""Quickstart: simulate turn-model routing on a small mesh.

Runs the nonadaptive xy algorithm and the partially adaptive turn-model
algorithms on matrix-transpose traffic in an 8x8 wormhole-routed mesh,
one ``repro.api.run`` call per point, and prints the latency/throughput
comparison — a miniature of the paper's Figure 14 experiment.

Run:  python examples/quickstart.py
"""

from repro.api import SimulationConfig, run


def main() -> None:
    config = SimulationConfig(
        warmup_cycles=1_000, measure_cycles=6_000, drain_cycles=2_000
    )

    print("8x8 mesh, matrix-transpose traffic, offered load 0.25 flits/node/cycle")
    print(f"{'algorithm':16s} {'throughput':>12s} {'latency':>10s} {'status':>12s}")
    for name in ("xy", "west-first", "north-last", "negative-first"):
        result = run(
            topology="mesh:8x8", routing=name, pattern="transpose",
            load=0.25, config=config,
        ).result
        status = "sustainable" if result.is_sustainable() else "saturated"
        print(
            f"{name:16s} {result.throughput_flits_per_usec:9.1f} fl/us "
            f"{result.avg_latency_usec:8.2f} us {status:>12s}"
        )

    print()
    print("The adaptive algorithms route around the transpose pattern's")
    print("congestion; negative-first is fully adaptive on every transpose")
    print("pair and sustains roughly twice xy's throughput (paper, Fig. 14).")


if __name__ == "__main__":
    main()
