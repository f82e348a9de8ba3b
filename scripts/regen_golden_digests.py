#!/usr/bin/env python
"""Regenerate the golden-digest fixtures for the determinism tests.

Run from the repository root::

    python scripts/regen_golden_digests.py

Rewrites ``tests/sim/golden_digests.json``.  Only do this when a
behavior change to the engine is *intended* — the whole point of the
fixtures is that accidental changes fail ``tests/sim/test_determinism.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.obs.metrics import MetricsCollector  # noqa: E402
from repro.sim.digest import result_digest, run_digest, trace_digest  # noqa: E402

from tests.sim.golden_scenarios import (  # noqa: E402
    ALL_SCENARIOS,
    OBS_SUMMARY_SPEC,
    obs_summary_digest,
    summary_digest,
)

FIXTURE = REPO / "tests" / "sim" / "golden_digests.json"


def main() -> int:
    fixtures = {}
    for name, build in ALL_SCENARIOS.items():
        sim, trace, *controller = build()
        result = sim.run()
        fixtures[name] = {
            "result": result_digest(result),
            "trace": trace_digest(trace),
            "run": run_digest(result, trace),
            "trace_events": len(trace.events),
            "total_delivered": result.total_delivered,
            "deadlocked": result.deadlocked,
        }
        if controller:
            fixtures[name]["ledger"] = summary_digest(
                controller[0].stats.summary()
            )
        # The same run again with a collector bound, for its summary.
        collector = MetricsCollector(OBS_SUMMARY_SPEC)
        build(obs=collector)[0].run()
        fixtures[name]["obs_summary"] = obs_summary_digest(collector.summary())
        print(f"{name:32s} run={fixtures[name]['run'][:16]}... "
              f"delivered={result.total_delivered} "
              f"deadlocked={result.deadlocked}")
    FIXTURE.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
