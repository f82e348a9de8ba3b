"""One pass of one workload, in an interpreter of its own.

``run.py`` starts this once per pass (and per variant of a pass), one at
a time, so the program's process-wide caches — warm contexts, topology
and route memo tables — start empty exactly as they do for someone
running the CLI.  The child builds the workload's inputs from the seed,
runs the timed call, digests the outputs outside the timed region, and
writes one JSON record to ``--result``.  Its set-up cost is what the
driver sees of its lifetime beyond ``timed_s`` and ``check_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest waited-for pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0  # Linux reports KiB


def _pass_metrics(role: str, record: dict) -> dict:
    """Per-layer numbers read off the real traced pass's executor tally.

    The parallel child of a pass owns the pool counters; the primary one
    owns the rest (and the pool counters too when it is the only child).
    """
    tally = record["executor"]
    values = {}
    if role != "primary":
        values.update({
            "executor.batches": tally["batches"],
            "executor.prewarmed_keys": tally["prewarmed_keys"],
            "executor.warm_points": tally["warm_points"],
            "executor.par_busy_share":
                tally["point_wall_sum_s"] / (2 * tally["run_points_wall_s"])
                if role == "parallel" else 0.0,
        })
    if role != "parallel":
        points, in_points = tally["points_total"], tally["point_wall_sum_s"]
        values.update({
            "executor.serial_overhead_ms":
                (tally["run_points_wall_s"] - in_points) / points * 1e3 if in_points else 0.0,
            "cache.hit_ratio": tally["cache_hits"] / points if points else 0.0,
        })
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--role", choices=("only", "primary", "parallel"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", type=int, default=0)
    parser.add_argument("--reduced", type=int, default=0)
    args = parser.parse_args()

    from layers import Replay
    from spans import Tracer
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload](args.seed, bool(args.reduced))
    tracer = Tracer(args.workload) if args.trace else None
    ctx = Context(args.work, tracer)
    try:
        record, kept = workload.run(args.variant, ctx)
        began = time.perf_counter()
        workload.check(record, kept, bool(args.reference))
        record["check_s"] = time.perf_counter() - began
        del kept
    except Exception:  # boundary: a failed pass is reported, not lost
        record = {"error": traceback.format_exc()}
    if tracer is not None and "error" not in record:
        record["layer_metrics"] = _pass_metrics(args.role, record)
        record["layer_reasons"] = {}
        if args.role != "parallel":
            # Collect the pass's outputs now, so that no layer span of the
            # replay is charged for it.
            gc.collect()
            replay = Replay(tracer, workload.replay_inputs(), args.work, args.seed)
            with tracer.span("replay"):
                replay.run()
            record["layer_metrics"].update(replay.metrics)
            record["layer_metrics"]["sim.run_share"] = (
                replay.warm_run_total_s() / record["timed_s"])
            record["layer_reasons"] = replay.reasons
        record["spans"] = tracer.spans
    record["peak_rss_mb"] = _peak_rss_mb()
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
