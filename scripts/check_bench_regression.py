#!/usr/bin/env python
"""Bench regression guard: fail CI when the engine or the sweep slows down.

Compares a fresh bench payload against a committed baseline and exits
nonzero when a guarded scenario's rate metric regressed by more than
the threshold (default: 15%).  Works for both bench families:

* engine bench (``repro bench``, ``BENCH_engine.json``) — metric
  ``cycles_per_sec``, runs comparable when ``cycles_simulated`` match;
* sweep bench (``repro bench --sweep``, ``BENCH_sweep.json``) — metric
  ``points_per_sec``, runs comparable when ``points_total`` match.

Usage::

    repro bench --quick --out /tmp/bench-current.json
    python scripts/check_bench_regression.py \\
        --baseline BENCH_engine.json --current /tmp/bench-current.json

    repro bench --sweep --out /tmp/bench-sweep-current.json
    python scripts/check_bench_regression.py \\
        --baseline BENCH_sweep.json --current /tmp/bench-sweep-current.json \\
        --metric points_per_sec --scenario mesh16-grid

Several baseline/current/metric/scenario groups can be guarded in one
invocation with repeatable ``--check`` specs — e.g. both bench families
at once::

    python scripts/check_bench_regression.py \\
        --check 'BENCH_engine.json:/tmp/eng.json:cycles_per_sec:mesh16-west-first-sat,cube8-pcube-sat' \\
        --check 'BENCH_sweep.json:/tmp/sweep.json:points_per_sec:mesh16-grid'

Each spec is ``baseline:current:metric:scenario[,scenario...]``; the
exit code is the worst across all checks (so one >threshold regression
of either payload fails the invocation).

Non-guarded scenarios are reported for context but never fail the
check; wall-clock noise on shared CI runners is real, which is why the
guard watches a small set of scenarios with a generous threshold
rather than every scenario with a tight one.  Result digests, by
contrast, are machine-independent: a digest mismatch between runs of
the same size fails the guard regardless of speed.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_SCENARIOS = ("mesh16-west-first-sat",)
DEFAULT_THRESHOLD = 0.15
DEFAULT_METRIC = "cycles_per_sec"

#: For each rate metric, the scenario field that must match for two
#: runs to be the same seeded workload (and digests comparable).
COUNT_KEYS = {
    "cycles_per_sec": "cycles_simulated",
    "points_per_sec": "points_total",
}


def compare(
    baseline: dict,
    current: dict,
    guarded: tuple,
    threshold: float,
    metric: str = DEFAULT_METRIC,
) -> int:
    count_key = COUNT_KEYS.get(metric)
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    failures = []
    unit = metric.replace("_per_sec", "/s")
    print(
        f"{'scenario':28s} {'baseline ' + unit:>16s} "
        f"{'current ' + unit:>16s} {'change':>8s}  guard"
    )
    digest_breaks = []
    for name in sorted(set(base_scenarios) & set(cur_scenarios)):
        base = base_scenarios[name]
        cur = cur_scenarios[name]
        base_rate = base.get(metric)
        cur_rate = cur.get(metric)
        if not base_rate or not cur_rate:
            print(f"{name:28s} {'-':>16s} {'-':>16s} {'-':>8s}  no {metric}")
            continue
        change = cur_rate / base_rate - 1.0
        is_guarded = name in guarded
        verdict = ""
        if is_guarded:
            if change < -threshold:
                verdict = "FAIL"
                failures.append((name, change))
            else:
                verdict = "ok"
        # Same workload size => the run is the same seeded workload,
        # and its result digest is machine-independent: any mismatch
        # means simulator behavior changed, not just speed.
        if (
            count_key is not None
            and base.get(count_key) == cur.get(count_key)
            and base.get("result_digest")
            and cur.get("result_digest")
            and base["result_digest"] != cur["result_digest"]
        ):
            digest_breaks.append(name)
            verdict = (verdict + " digest-mismatch").strip()
        print(
            f"{name:28s} {base_rate:16.1f} {cur_rate:16.1f} "
            f"{change:+7.1%}  {verdict}"
        )
    missing = [name for name in guarded if name not in cur_scenarios]
    if missing:
        print(f"guarded scenario(s) missing from current payload: {missing}")
        return 2
    missing = [name for name in guarded if name not in base_scenarios]
    if missing:
        print(f"guarded scenario(s) missing from baseline: {missing}")
        return 2
    if digest_breaks:
        print(
            "BIT-IDENTITY: result digests changed for same-size runs: "
            f"{digest_breaks}"
        )
    if failures:
        for name, change in failures:
            print(
                f"REGRESSION: {name} is {-change:.1%} slower than the "
                f"committed baseline (threshold {threshold:.0%})"
            )
    if failures or digest_breaks:
        return 1
    print("bench regression guard: ok")
    return 0


def parse_check(spec: str) -> tuple:
    """Parse one ``baseline:current:metric:scen[,scen...]`` spec."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad --check spec {spec!r}: expected "
            "baseline:current:metric:scenario[,scenario...]"
        )
    baseline, current, metric, scenarios = parts
    if metric not in COUNT_KEYS:
        raise ValueError(
            f"bad --check spec {spec!r}: unknown metric {metric!r} "
            f"(known: {', '.join(sorted(COUNT_KEYS))})"
        )
    guarded = tuple(s for s in scenarios.split(",") if s)
    if not guarded:
        raise ValueError(f"bad --check spec {spec!r}: no scenarios")
    return baseline, current, metric, guarded


def run_check(baseline_path: str, current_path: str, metric: str,
              guarded: tuple, threshold: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(current_path) as fh:
        current = json.load(fh)
    print(f"== {baseline_path} vs {current_path} ({metric}) ==")
    return compare(baseline, current, guarded, threshold, metric=metric)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_engine.json",
        help="committed baseline payload",
    )
    parser.add_argument(
        "--current", default=None, help="freshly produced bench payload"
    )
    parser.add_argument(
        "--scenario",
        nargs="+",
        default=list(DEFAULT_SCENARIOS),
        help="scenario name(s) the guard fails on",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown before failing (0.15 = 15%%)",
    )
    parser.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        choices=sorted(COUNT_KEYS),
        help="scenario rate metric to guard",
    )
    parser.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="BASE:CURRENT:METRIC:SCEN[,SCEN...]",
        help="guard one baseline/current/metric/scenario group; "
        "repeatable, exit code is the worst across groups "
        "(mutually exclusive with --current)",
    )
    args = parser.parse_args(argv)
    if args.check:
        if args.current is not None:
            parser.error("--check and --current are mutually exclusive")
        try:
            checks = [parse_check(spec) for spec in args.check]
        except ValueError as exc:
            parser.error(str(exc))
        worst = 0
        for baseline_path, current_path, metric, guarded in checks:
            code = run_check(
                baseline_path, current_path, metric, guarded, args.threshold
            )
            worst = max(worst, code)
            print()
        return worst
    if args.current is None:
        parser.error("one of --current or --check is required")
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)
    return compare(
        baseline, current, tuple(args.scenario), args.threshold,
        metric=args.metric,
    )


if __name__ == "__main__":
    sys.exit(main())
