"""Self-test of the benchmark harness (under 30 s; not part of tier-1).

    python bench/selftest.py

Checks ``BENCHMARK.json`` against the limits the benchmark contract sets,
then runs every workload on a reduced grid — the warm-up pass, one timed
pass and one traced pass — and checks that the result carries every metric the file
names, that every per-layer metric is resolved, that nothing failed, and
that the trace parses with every span's parent present.
"""

from __future__ import annotations

import json
import re
import sys

from run import load_benchmark, run_workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_schema(spec: dict) -> list:
    problems = []
    if set(spec) != KEYS:
        problems.append(f"keys {sorted(spec)} != {sorted(KEYS)}")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    problems += [f"name {name!r} used twice" for name in set(names) if names.count(name) > 1]
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("1 to 128 per-layer metrics")
    for workload in spec["workloads"]:
        why = workload.get("why", "")
        if set(workload) != {"name", "why"} or not why or "\n" in why or len(why) > 200:
            problems.append(f"workload {workload.get('name')}: needs a one-line why")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"{metric.get('name')}: keys {sorted(metric)}")
        elif not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']} outside (0, 0.25]")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"{metric.get('name')}: keys {sorted(metric)}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric.get("unit", "")):
            problems.append(f"{metric['name']}: bad unit {metric.get('unit')!r}")
        if metric.get("better") not in ("higher", "lower"):
            problems.append(f"{metric['name']}: better must be higher or lower")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("setup_s [s, lower] must be an end-to-end metric")
    return problems


def check_result(result: dict, spec: dict) -> list:
    name = result["workload"]
    problems = [f"{name}: {failure}" for failure in result["failures"]]
    if result["end_to_end"] is None or result["per_layer"] is None:
        return problems + [f"{name}: a pass produced no result"]
    for metric in spec["end_to_end"]:
        row = result["end_to_end"].get(metric["name"])
        if row is None or (row["value"] is None and not row.get("reason")):
            problems.append(f"{name}: {metric['name']} has neither a value nor a reason")
    for metric in spec["per_layer"]:
        row = result["per_layer"][metric["name"]]
        if row["value"] is None:
            problems.append(f"{name}: {metric['name']} unresolved: {row['reason']}")
    spans = json.loads(json.dumps(result["trace"]))["spans"]
    ids = {span["id"] for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] not in ids:
            problems.append(f"{name}: span {span['id']} has no parent {span['parent']}")
        if span["end"] < span["start"]:
            problems.append(f"{name}: span {span['id']} ends before it starts")
    return problems


def main() -> int:
    spec = load_benchmark()
    problems = check_schema(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_workload(workload, 7, spec, passes=1, seconds=None,
                              trace=True, reduced=True)
        found = check_result(result, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}"
              f" ({result['attempted']} operations, {len(result.get('trace', {}).get('spans', []))} spans)")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
