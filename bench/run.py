"""The repository benchmark: five workloads, end to end and layer by layer.

    python bench/run.py [--seed S] [--workload W ...] [--passes N]
                        [--trace] [--out DIR]

Every pass of a workload runs in a fresh child interpreter
(``bench/child.py``), one child at a time; a discarded warm-up pass comes
first, then the timed passes.  Each end-to-end metric is reported with its
unit as median, quartiles, minimum and sample count; ``--trace`` adds one
traced pass per workload (never mixed into the end-to-end numbers), prints
the per-layer metrics and writes ``<out>/trace-<workload>.json``.  Outputs
are checked against ``bench/expected.json`` (seed 7) and against each
other; anything that disagrees counts into ``failed_share``.

The automated driver calls it as ``--workload W --seed N --seconds T
--trace 0|1`` and reads the last line of standard output: one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Child processes per pass, in run order; the first is the primary one.
VARIANTS = {"grid_short": ("jobs1", "jobs2")}
#: The rate a workload exists to measure.  In the driver's result line it
#: also fills the rate metrics that have no meaning on that workload.
PRIMARY = {
    "grid_short": "points_per_s",
    "long_points": "kcycles_per_s",
    "obs_cached": "points_per_s",
    "fault_sweep": "points_per_s",
    "certify_synth": "proofs_per_s",
}
LATENCIES = ("point_p50_ms", "point_p95_ms")
PINNED_SEED = 7
DEFAULT_PASSES = 5
#: With ``--seconds``: at least this many timed passes (quartiles need
#: three), at most ``MAX_PASSES``.
MIN_PASSES, MAX_PASSES = 3, 9
CHILD_TIMEOUT_S = 150


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_fingerprint() -> dict:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        described = None
    return {
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_describe": described,
    }


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
    return ordered[index]


def summarize(samples: List[float], value: Optional[float] = None) -> dict:
    """Median, quartiles, minimum and count of a metric's per-pass samples.
    ``value`` overrides the headline (pooled percentiles do)."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples) if value is None else value,
        "q1": q1, "q3": q3, "min": min(samples), "n": len(samples),
        "samples": samples,
    }


# -- running children ---------------------------------------------------


def spawn_child(workload: str, variant: str, role: str, seed: int, *,
                trace: bool, reference: bool, reduced: bool) -> dict:
    """Run one child to completion and return its record plus
    ``lifetime_s``, the child's whole life as this process saw it."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    result = work / "result.json"
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--variant", variant, "--role", role,
        "--seed", str(seed), "--work", str(work), "--result", str(result),
        "--trace", str(int(trace)), "--reference", str(int(reference)),
        "--reduced", str(int(reduced)),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        started = time.perf_counter()
        # Its own session, so a hung child's pool workers die with it.
        process = subprocess.Popen(command, cwd=ROOT, env=env,
                                   stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            code = "timeout"
        lifetime = time.perf_counter() - started
        if code == 0 and result.exists():
            record = json.loads(result.read_text())
        else:
            record = {"error": f"child exited with {code} and no result"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["lifetime_s"] = lifetime
    record["variant"] = variant
    return record


def run_pass(workload: str, seed: int, nproc: int, **flags) -> dict:
    """One pass: each variant in its own child, one after the other."""
    load = os.getloadavg()[0]
    variants = VARIANTS.get(workload, ("main",))
    children = {}
    for index, variant in enumerate(variants):
        if variant == "jobs2" and nproc < 2:
            continue
        role = "only" if len(variants) == 1 else ("primary" if index == 0 else "parallel")
        children[variant] = spawn_child(workload, variant, role, seed, **flags)
    # A pass that starts on a busy host is kept, but says so.
    return {"load_before": load, "noisy": load > nproc, "children": children}


# -- metrics ------------------------------------------------------------


def pass_sample(workload: str, children: Dict[str, dict]) -> Dict[str, float]:
    """The end-to-end values one timed pass contributes."""
    first = next(iter(children.values()))
    wall, ops = first["timed_s"], first["ops"]
    values: Dict[str, float] = {}
    if workload == "grid_short":
        values["points_per_s"] = ops / wall
        if "jobs2" in children:
            par = children["jobs2"]
            values["par_points_per_s"] = par["ops"] / par["timed_s"]
        ordered = sorted(first["op_walls_ms"])
        values["point_p50_ms"] = percentile(ordered, 50)
        values["point_p95_ms"] = percentile(ordered, 95)
    elif workload == "long_points":
        values["kcycles_per_s"] = first["simulated_kcycles"] / wall
    elif workload == "obs_cached":
        segments = first["segments"]
        wall = segments["fresh_s"]
        values["points_per_s"] = ops / wall
        values["cached_points_per_s"] = segments["rerun_ops"] / segments["rerun_s"]
    elif workload == "fault_sweep":
        values["points_per_s"] = ops / wall
    elif workload == "certify_synth":
        values["proofs_per_s"] = ops / wall
    values["setup_s"] = sum(
        child["lifetime_s"] - child["timed_s"] - child["check_s"]
        for child in children.values())
    values["peak_rss_mb"] = max(child["peak_rss_mb"] for child in children.values())
    values["wall_s"] = first["timed_s"]
    values["mean_op_ms"] = wall / ops * 1e3
    return values


def end_to_end(workload: str, passes: List[dict], spec: dict, nproc: int) -> dict:
    """Summaries of every end-to-end metric; ``None`` (with a reason)
    where a metric is not defined on this workload."""
    samples = [pass_sample(workload, p["children"]) for p in passes]
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [s[name] for s in samples if name in s]
        if not values:
            reason = ("needs two cores" if name == "par_points_per_s"
                      and workload == "grid_short" and nproc < 2
                      else "not defined on this workload")
            out[name] = {"value": None, "reason": reason}
            continue
        headline = None
        if name in LATENCIES:
            # The percentile of all points of all passes, not a median of
            # per-pass percentiles: p95 needs the samples.
            pooled = sorted(wall for p in passes for wall in
                            next(iter(p["children"].values()))["op_walls_ms"])
            headline = percentile(pooled, 50 if name == "point_p50_ms" else 95)
        out[name] = summarize(values, headline)
    for extra in ("wall_s", "mean_op_ms"):
        out[extra] = summarize([s[extra] for s in samples])
    if "par_points_per_s" in out and out["par_points_per_s"]["value"]:
        out["par_efficiency"] = {
            "value": out["par_points_per_s"]["value"] / (2 * out["points_per_s"]["value"])}
    return out


def driver_metrics(workload: str, summaries: dict, spec: dict) -> dict:
    """Every end-to-end metric as a number, for the driver's result line.

    The driver wants each metric on each workload.  Where the benchmark
    leaves one undefined, the slot carries the workload's primary rate
    (for a rate) or its mean time per operation (for a latency), so the
    number it gates is still one this workload really produced.
    """
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        value = summaries[name]["value"]
        if value is None:
            stand_in = "mean_op_ms" if name in LATENCIES else PRIMARY[workload]
            value = summaries[stand_in]["value"]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


# -- correctness ---------------------------------------------------------


def _canonical(key: str) -> str:
    """``rerun2:<point>`` and ``noobs:<point>`` must equal ``<point>``."""
    head, _, rest = key.partition(":")
    return rest if head.startswith("rerun") or head == "noobs" else key


def check_outputs(workload: str, seed: int, passes: List[dict], reduced: bool) -> dict:
    """Count operations attempted and failed over every pass run.

    An operation fails if its child crashed, it reported a problem (an
    unexpected deadlock or verdict, a rerun that simulated), or its
    digest disagrees with the first pass's — across passes, across
    ``jobs``, across fresh / rerun / obs-off.  For the pinned seed the
    first pass itself must match ``bench/expected.json``.
    """
    attempted = failed = 0
    failures: List[str] = []
    reference: Dict[str, str] = {}
    for number, one in enumerate(passes):
        for variant, child in one["children"].items():
            where = f"{workload} pass {number} {variant}"
            if "error" in child:
                attempted += 1
                failed += 1
                failures.append(f"{where}: {child['error'].strip().splitlines()[-1]}")
                continue
            attempted += child["ops"] + child["segments"].get("rerun_ops", 0)
            for problem in child["problems"]:
                failed += 1
                failures.append(f"{where}: {problem}")
            for key, digest in child["digests"].items():
                expected = reference.setdefault(_canonical(key), digest)
                if digest != expected:
                    failed += 1
                    failures.append(f"{where}: {key}: digest disagrees with the first pass")
    combined = combined_digest(reference)
    if seed == PINNED_SEED and not reduced:
        attempted += 1
        pinned = json.loads((BENCH / "expected.json").read_text())["digests"].get(workload)
        if combined != pinned:
            failed += 1
            failures.append(f"{workload}: combined digest {combined} != pinned {pinned}")
    return {"attempted": attempted, "failed": min(failed, attempted),
            "failures": failures, "combined_digest": combined}


def combined_digest(reference: Dict[str, str]) -> str:
    text = json.dumps(sorted(reference.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- one workload ---------------------------------------------------------


def run_workload(workload: str, seed: int, spec: dict, *, passes: Optional[int],
                 seconds: Optional[float], trace: bool, reduced: bool = False) -> dict:
    host = host_fingerprint()
    nproc = host["nproc"]
    host["load_before"] = os.getloadavg()[0]
    flags = dict(trace=False, reference=False, reduced=reduced)
    # The warm-up pass fills .pyc files and the page cache; its times are
    # discarded, its outputs are the reference the later passes must equal.
    discarded = run_pass(workload, seed, nproc, **{**flags, "reference": True})
    timed: List[dict] = []
    spent = 0.0
    while True:
        if passes is not None and len(timed) >= passes:
            break
        if passes is None and len(timed) >= MIN_PASSES and (
                spent >= seconds or len(timed) >= MAX_PASSES):
            break
        one = run_pass(workload, seed, nproc, **flags)
        timed.append(one)
        spent += sum(child["lifetime_s"] for child in one["children"].values())
    traced = run_pass(workload, seed, nproc, **{**flags, "trace": True}) if trace else None
    everything = [discarded] + timed + ([traced] if traced else [])
    checks = check_outputs(workload, seed, everything, reduced)

    usable = [p for p in timed if all("error" not in c for c in p["children"].values())]
    result = {
        "schema": 1,
        "claim": None,
        "workload": workload,
        "seed": seed,
        "passes": len(timed),
        "noisy_passes": sum(p["noisy"] for p in timed),
        "host": host,
        **checks,
        "failed_share": checks["failed"] / checks["attempted"],
        "end_to_end": end_to_end(workload, usable, spec, nproc) if usable else None,
        "per_layer": None,
        "pass_records": [
            {"load_before": p["load_before"], "noisy": p["noisy"],
             "children": {v: {k: c.get(k) for k in
                              ("lifetime_s", "timed_s", "check_s", "peak_rss_mb", "error")}
                          for v, c in p["children"].items()}}
            for p in timed],
    }
    if traced is not None and usable:
        result["per_layer"], result["trace"] = per_layer(traced, result, spec)
    host["load_after"] = os.getloadavg()[0]
    return result


def per_layer(traced: dict, result: dict, spec: dict):
    """Merge the traced children's layer metrics and spans."""
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    spans: List[dict] = []
    for child in traced["children"].values():
        if "error" in child:
            continue
        values.update(child["layer_metrics"])
        reasons.update(child["layer_reasons"])
        offset = len(spans)
        for span in child["spans"]:
            span = dict(span, id=span["id"] + offset, variant=child["variant"])
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    first = next(iter(traced["children"].values()))
    if "timed_s" in first:
        values["trace.overhead_ratio"] = (
            first["timed_s"] / result["end_to_end"]["wall_s"]["value"])
    values["trace.spans"] = len(spans)
    table = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        value = values.get(name)
        table[name] = {"value": value, "unit": metric["unit"]}
        if value is None:
            table[name]["reason"] = reasons.get(name, "the traced pass did not report it")
    own = self_times(spans)
    for span in spans:
        span["self_s"] = own[span["id"]]
    return table, {"workload": result["workload"], "seed": result["seed"], "spans": spans}


# -- output ---------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_result(result: dict, spec: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  seed={result['seed']} passes={result['passes']}"
          f" noisy={result['noisy_passes']}"
          f" failed_share={result['failed']}/{result['attempted']}"
          f"={result['failed_share']:.4g}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    table = result["end_to_end"]
    if table is None:
        print("   no usable timed pass")
        return
    print(f"   {'end-to-end metric':<22}{'unit':<10}{'median':>10}{'q1':>10}{'q3':>10}"
          f"{'min':>10}{'n':>4}  bound")
    for metric in spec["end_to_end"]:
        row = table[metric["name"]]
        if row["value"] is None:
            print(f"   {metric['name']:<22}{metric['unit']:<10}{'null':>10}  ({row['reason']})")
            continue
        print(f"   {metric['name']:<22}{metric['unit']:<10}{_fmt(row['value']):>10}"
              f"{_fmt(row['q1']):>10}{_fmt(row['q3']):>10}{_fmt(row['min']):>10}"
              f"{row['n']:>4}  {metric['bound']:.0%} {metric['better']}")
    walls = " ".join(_fmt(v) for v in table["wall_s"]["samples"])
    print(f"   wall_s per pass: {walls}")
    if "par_efficiency" in table:
        print(f"   par_efficiency = par_points_per_s / (2 * points_per_s)"
              f" = {table['par_efficiency']['value']:.3f}")
    if result["per_layer"] is not None:
        print(f"   {'per-layer metric (traced pass)':<36}{'unit':<10}{'value':>12}")
        for metric in spec["per_layer"]:
            row = result["per_layer"][metric["name"]]
            note = f"  ({row['reason']})" if row["value"] is None else ""
            print(f"   {metric['name']:<36}{metric['unit']:<10}{_fmt(row['value']):>12}{note}")


def driver_line(result: dict, spec: dict, trace: bool) -> str:
    """The driver's one-line result.  It cannot carry ``null``: an
    unresolved per-layer metric reads 0 there (the table above and the
    result file have the ``null`` and its reason)."""
    if trace:
        metrics = {name: {"value": row["value"] if row["value"] is not None else 0,
                          "unit": row["unit"]}
                   for name, row in result["per_layer"].items()}
    else:
        metrics = driver_metrics(result["workload"], result["end_to_end"], spec)
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="generates the inputs: every spec seed and the fault seed")
    parser.add_argument("--workload", action="append", nargs="+", metavar="W",
                        help="workload(s) to run; default all")
    parser.add_argument("--passes", type=int,
                        help=f"timed passes per workload (default {DEFAULT_PASSES})")
    parser.add_argument("--seconds", type=float,
                        help="instead of --passes: keep starting passes until this "
                             f"much time is measured ({MIN_PASSES} to {MAX_PASSES} passes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="add a traced pass and print the per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for result-<workload>.json and trace-<workload>.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program to measure is not here",
              file=sys.stderr)
        return 2
    spec = load_benchmark()
    known = [w["name"] for w in spec["workloads"]]
    chosen = [w for group in args.workload or [known] for w in group]
    unknown = [w for w in chosen if w not in known]
    if unknown:
        parser.error(f"unknown workload {unknown}; known: {known}")
    passes = args.passes
    if passes is None and args.seconds is None:
        passes = DEFAULT_PASSES

    args.out.mkdir(parents=True, exist_ok=True)
    crashed = False
    for workload in chosen:
        result = run_workload(workload, args.seed, spec, passes=passes,
                              seconds=args.seconds, trace=bool(args.trace))
        trace_payload = result.pop("trace", None)
        (args.out / f"result-{workload}.json").write_text(json.dumps(result, indent=1))
        if trace_payload is not None:
            (args.out / f"trace-{workload}.json").write_text(json.dumps(trace_payload))
        print_result(result, spec)
        crashed |= result["end_to_end"] is None or (
            bool(args.trace) and result["per_layer"] is None)
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    if crashed:
        return 1
    if len(chosen) == 1:
        print(driver_line(result, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
