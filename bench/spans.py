"""In-memory spans recorded by the benchmark's own code.

Nothing under ``src/`` is instrumented: every span is opened and closed
here, around a call the benchmark makes into a layer's public function.
A span is ``{"id", "name", "start", "end", "parent", "workload",
"point"}`` with times from :func:`time.perf_counter`; they stay in a list
until the child process hands them to the driver, which writes them to
``<out>/trace-<workload>.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans for one traced pass of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []

    @property
    def current(self) -> Optional[int]:
        """Id of the innermost open span (the parent of the next one)."""
        return self._open[-1] if self._open else None

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], point: Optional[str] = None) -> dict:
        """Record a span whose interval the caller measured itself."""
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "workload": self.workload,
            "point": point,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[dict]:
        """Time the enclosed block as a child of the innermost open span."""
        span = self.add(name, time.perf_counter(), 0.0, self.current, point)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other (points of a parallel pass do), so
    the covered part is the union of their intervals, clipped to the
    parent.
    """
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = duration(span) - covered
    return result
