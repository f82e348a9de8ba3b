"""Engine benchmark harness: cycles/sec on fixed scenarios (``repro bench``).

The ROADMAP's "as fast as the hardware allows" needs a number attached
to it.  This module times :class:`~repro.sim.engine.WormholeSimulator`
on a fixed set of paper-scale scenarios — a 16x16 mesh under west-first
routing and a binary 8-cube (256 nodes each), both at low load and at
saturation — and reports, per scenario:

* **cycles/sec** — simulated cycles per wall-clock second, the headline
  engine-speed metric tracked across PRs (``BENCH_engine.json``);
* **flit-moves/sec** — flit transfers per second, a work metric that
  does not reward the idle fast-forward for skipping dead time;
* route-cache occupancy and hit rate, and the executed-vs-simulated
  cycle ratio (how much the fast-forward actually skipped);
* the canonical result digest, so two bench runs on different engine
  versions can be checked for bit-identity at a glance.

Scenario definitions are frozen: changing them invalidates every
recorded baseline, so add new scenarios instead of editing existing
ones.  Run from the CLI::

    repro bench                   # full scenarios, writes BENCH_engine.json
    repro bench --quick           # CI-sized runs
    repro bench --baseline old.json   # print speedups against a recording
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.routing.registry import make_routing
from repro.sim.config import SimulationConfig
from repro.sim.digest import result_digest
from repro.sim.engine import WormholeSimulator, make_simulator
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import SizeDistribution, Workload

__all__ = ["BenchScenario", "BENCH_SCENARIOS", "run_bench", "render_report", "main"]

#: Packet sizes used by every bench scenario (mean 14 flits — bimodal
#: like the paper's workload but sized for benchmark turnaround).
_BENCH_SIZES = ((4, 0.5), (24, 0.5))

#: Offered loads for the "low" and "saturation" operating points.
_LOW_LOAD = 0.05
_SAT_LOAD = 0.45


@dataclass(frozen=True)
class BenchScenario:
    """One frozen benchmark point.

    Attributes:
        name: stable identifier (keys ``BENCH_engine.json``).
        description: one-line summary for the report.
        build: ``build(config) -> WormholeSimulator``.
    """

    name: str
    description: str
    build: Callable[[SimulationConfig], WormholeSimulator]


def _workload(topology, load: float, seed: int) -> Workload:
    return Workload(
        pattern=make_pattern("uniform", topology),
        sizes=SizeDistribution(_BENCH_SIZES),
        offered_load=load,
        seed=seed,
    )


def _simulator(topology, routing_name: str, load: float,
               config: SimulationConfig, seed: int) -> WormholeSimulator:
    routing = make_routing(routing_name, topology)
    return make_simulator(routing, _workload(topology, load, seed), config)


BENCH_SCENARIOS: Dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            "mesh16-west-first-low",
            "16x16 mesh, west-first, uniform, load 0.05",
            lambda config: _simulator(Mesh2D(16, 16), "west-first",
                                      _LOW_LOAD, config, seed=101),
        ),
        BenchScenario(
            "mesh16-west-first-sat",
            "16x16 mesh, west-first, uniform, load 0.45 (saturation)",
            lambda config: _simulator(Mesh2D(16, 16), "west-first",
                                      _SAT_LOAD, config, seed=102),
        ),
        BenchScenario(
            "cube8-ecube-low",
            "binary 8-cube, e-cube, uniform, load 0.05",
            lambda config: _simulator(Hypercube(8), "e-cube",
                                      _LOW_LOAD, config, seed=103),
        ),
        BenchScenario(
            "cube8-pcube-sat",
            "binary 8-cube, p-cube, uniform, load 0.45 (saturation)",
            lambda config: _simulator(Hypercube(8), "p-cube",
                                      _SAT_LOAD, config, seed=104),
        ),
    )
}


def _bench_config(quick: bool) -> SimulationConfig:
    if quick:
        return SimulationConfig(warmup_cycles=100, measure_cycles=600,
                                drain_cycles=100)
    return SimulationConfig(warmup_cycles=400, measure_cycles=2400,
                            drain_cycles=400)


def _profile_one(scenario: BenchScenario, config: SimulationConfig,
                 top: int = 25) -> List[dict]:
    """One extra (untimed) run under cProfile; top functions by cumtime."""
    import cProfile
    import pstats

    sim = scenario.build(config)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, line, name = func
        rows.append({
            "function": name,
            "file": filename,
            "line": line,
            "ncalls": nc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    rows.sort(key=lambda r: (-r["cumtime"], r["file"], r["line"]))
    return rows[:top]


def _run_one(scenario: BenchScenario, config: SimulationConfig,
             repeat: int, profile: bool = False) -> dict:
    best: Optional[dict] = None
    for _ in range(max(1, repeat)):
        sim = scenario.build(config)
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        cycles = sim.cycle + 1
        record = {
            "description": scenario.description,
            "wall_seconds": wall,
            "cycles_simulated": cycles,
            "cycles_executed": sim.cycles_executed,
            "cycles_per_sec": cycles / wall if wall > 0 else float("inf"),
            "flit_moves": sim.flit_moves,
            "flit_moves_per_sec": sim.flit_moves / wall if wall > 0 else 0.0,
            "packets_delivered": result.total_delivered,
            "deadlocked": result.deadlocked,
            "result_digest": result_digest(result),
        }
        cache = sim.route_cache
        if cache is not None:
            record["route_cache"] = {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "prefilled_entries": cache.prefilled_entries,
                "hit_rate": round(cache.hit_rate, 6),
            }
        if best is None or record["wall_seconds"] < best["wall_seconds"]:
            best = record
    assert best is not None
    if profile:
        best["profile"] = _profile_one(scenario, config)
    return best


def run_bench(names: Optional[Iterable[str]] = None, quick: bool = False,
              repeat: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              profile: bool = False) -> dict:
    """Run the named scenarios (default: all) and return the payload.

    The payload maps each scenario name to its measurements plus a
    ``meta`` block (mode, interpreter, platform); it serializes directly
    to ``BENCH_engine.json``.

    Args:
        profile: attach the top-25 cumulative-time functions (one extra
            untimed cProfile run per scenario) to each record.
    """
    selected: List[BenchScenario] = []
    for name in (names or BENCH_SCENARIOS):
        try:
            selected.append(BENCH_SCENARIOS[name])
        except KeyError:
            known = ", ".join(sorted(BENCH_SCENARIOS))
            raise KeyError(f"unknown bench scenario {name!r}; known: {known}")
    config = _bench_config(quick)
    payload: dict = {
        "meta": {
            "mode": "quick" if quick else "full",
            "total_cycles": config.total_cycles,
            "repeat": max(1, repeat),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "scenarios": {},
    }
    for scenario in selected:
        if progress is not None:
            progress(f"bench {scenario.name} ({scenario.description}) ...")
        payload["scenarios"][scenario.name] = _run_one(
            scenario, config, repeat, profile=profile
        )
    return payload


def apply_baseline(payload: dict, baseline: dict) -> None:
    """Annotate each scenario with its speedup over a recorded baseline."""
    base_scenarios = baseline.get("scenarios", baseline)
    for name, record in payload["scenarios"].items():
        base = base_scenarios.get(name)
        if not base or not base.get("cycles_per_sec"):
            continue
        record["baseline_cycles_per_sec"] = base["cycles_per_sec"]
        record["speedup_vs_baseline"] = (
            record["cycles_per_sec"] / base["cycles_per_sec"]
        )


def render_report(payload: dict) -> str:
    """Human-readable table of one bench payload."""
    lines = [
        f"engine bench ({payload['meta']['mode']}, "
        f"{payload['meta']['total_cycles']} cycles/scenario, "
        f"python {payload['meta']['python']})",
        f"{'scenario':31s} {'cycles/s':>10s} {'fmoves/s':>11s} "
        f"{'executed':>9s} {'cache hit':>9s} {'delivered':>9s}",
    ]
    for name, r in payload["scenarios"].items():
        executed = f"{r['cycles_executed']}/{r['cycles_simulated']}"
        cache = r.get("route_cache")
        hit = f"{cache['hit_rate']:.1%}" if cache else "-"
        line = (
            f"{name:31s} {r['cycles_per_sec']:10.0f} "
            f"{r['flit_moves_per_sec']:11.0f} {executed:>9s} "
            f"{hit:>9s} {r['packets_delivered']:9d}"
        )
        if "speedup_vs_baseline" in r:
            line += f"   x{r['speedup_vs_baseline']:.2f} vs baseline"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python benchmarks/bench_engine.py``)."""
    import argparse

    parser = argparse.ArgumentParser(description="wormhole engine benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized runs (800 cycles/scenario)")
    parser.add_argument("--scenario", nargs="+", default=None,
                        choices=sorted(BENCH_SCENARIOS),
                        help="subset of scenarios to run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per scenario (best wall time wins)")
    parser.add_argument("--profile", action="store_true",
                        help="attach top-25 cProfile functions per scenario")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_engine.json to compute speedups")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output path ('-' to skip writing)")
    args = parser.parse_args(argv)

    payload = run_bench(args.scenario, quick=args.quick, repeat=args.repeat,
                        progress=lambda msg: print(msg, file=sys.stderr),
                        profile=args.profile)
    if args.baseline:
        with open(args.baseline) as fh:
            apply_baseline(payload, json.load(fh))
    print(render_report(payload))
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
