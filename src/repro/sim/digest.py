"""Canonical digests of simulation outcomes.

Engine optimizations in this repository are required to be *bit-identical*:
for the same topology, routing, workload, seed, and configuration, the
optimized hot path must produce exactly the same
:class:`~repro.sim.stats.SimulationResult` and the same trace event
sequence as the reference path.  This module defines the canonical
serialization the golden-digest regression tests
(``tests/sim/test_determinism.py``, ``tests/sim/test_engine_bench_digests.py``)
and the repository benchmark (``bench/``) hash to enforce that contract.

The serialization is plain JSON with sorted keys; floats go through
``repr`` (via ``json``), which is exact for Python floats, so any change
in any field — including a low-order bit of an average — changes the
digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Optional

from repro.sim.stats import SimulationResult
from repro.sim.trace import TraceRecorder

__all__ = ["result_to_canonical", "result_digest", "trace_digest", "run_digest"]


def _jsonable(value):
    """Make a value JSON-serializable without losing information."""
    if isinstance(value, dict):
        # JSON object keys must be strings; keep sort order stable.
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=repr)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def result_to_canonical(result: SimulationResult) -> str:
    """The canonical JSON serialization of a result (all fields)."""
    return json.dumps(_jsonable(asdict(result)), sort_keys=True)


def result_digest(result: SimulationResult) -> str:
    """SHA-256 hex digest of the canonical result serialization."""
    payload = result_to_canonical(result).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def trace_digest(trace: TraceRecorder) -> str:
    """SHA-256 hex digest of the full ordered trace event sequence."""
    lines = [
        f"{event.cycle}|{event.kind}|{event.pid}|{event.detail!r}"
        for event in trace.events
    ]
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_digest(result: SimulationResult, trace: Optional[TraceRecorder] = None) -> str:
    """Joint digest of a run: the result plus (optionally) its trace."""
    parts = [result_to_canonical(result)]
    if trace is not None:
        parts.append(trace_digest(trace))
    payload = "\n#\n".join(parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
