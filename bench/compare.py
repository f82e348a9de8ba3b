"""Compare two result sets of ``bench/run.py --out``.

    python bench/compare.py A B

One row per (end-to-end metric, workload) defined in both sets: both
medians with their quartile ranges, the ratio B/A with its base, and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound;
* ``same`` — within the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two sides' samples interleave, so the data cannot say.

Exits 1 when any row is worse or any workload's ``failed_share`` rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> Dict[str, dict]:
    results = {}
    for path in sorted(directory.glob("result-*.json")):
        result = json.loads(path.read_text())
        results[result["workload"]] = result
    if not results:
        raise SystemExit(f"{directory}: no result-<workload>.json files")
    return results


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return -change if better == "higher" else change


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    spread = max((side["q3"] - side["q1"]) / side["value"] for side in (a, b))
    sign = 1 if better == "higher" else -1
    wins = [sign * (y - x) > 0 for x in a["samples"] for y in b["samples"]]
    interleaved = any(wins) and not all(wins)
    if spread > bound and interleaved:
        return "unresolved"
    delta = worsening(a["value"], b["value"], better)
    if delta > bound:
        return "worse"
    return "better" if delta < -bound else "same"


def _range(row: dict) -> str:
    return f"{row['value']:.4g} [{row['q1']:.4g}..{row['q3']:.4g}] n={row['n']}"


def main(argv: Optional[list] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = (load_set(Path(arg)) for arg in args)
    counts = {"worse": 0, "better": 0, "same": 0, "unresolved": 0}
    bad = False
    print(f"{'metric':<22}{'workload':<15}{'A':<34}{'B':<34}{'B/A':<22}verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = set_a.get(workload), set_b.get(workload)
        if a is None or b is None or not a["end_to_end"] or not b["end_to_end"]:
            continue
        for metric in spec["end_to_end"]:
            row_a = a["end_to_end"][metric["name"]]
            row_b = b["end_to_end"][metric["name"]]
            if row_a["value"] is None or row_b["value"] is None:
                continue
            outcome = verdict(row_a, row_b, metric["better"], metric["bound"])
            counts[outcome] += 1
            ratio = f"{row_b['value'] / row_a['value']:.3f} of {row_a['value']:.4g}"
            print(f"{metric['name']:<22}{workload:<15}{_range(row_a):<34}"
                  f"{_range(row_b):<34}{ratio:<22}{outcome}")
        print(f"{'failed_share':<22}{workload:<15}"
              f"{a['failed']}/{a['attempted']:<32}{b['failed']}/{b['attempted']:<32}")
        if b["failed_share"] > a["failed_share"]:
            print(f"   failed_share rose on {workload}: {b['failures']}")
            bad = True
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if bad or counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
