"""Event tracing for the simulator.

A :class:`TraceRecorder` passed to :class:`~repro.sim.engine
.WormholeSimulator` records the packet-level events of a run — creation,
injection, every channel grant, completion, deadlock, and (under runtime
fault injection) faults, drops, and retransmissions — with a hard cap so
a saturated run cannot exhaust memory.  Traces make routing behavior
inspectable ("which path did packet 17 actually take?"), power the
path-replay assertions in the test suite, and serialize to JSON Lines
(:meth:`TraceRecorder.to_jsonl`) so fault runs are replayable offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, List, Union

from repro.obs.envelope import replace_file
from repro.topology.channels import Channel

__all__ = ["TraceEvent", "TraceRecorder"]

#: Event kinds.
CREATED = "created"
INJECTED = "injected"
GRANTED = "granted"
EJECT_GRANTED = "eject-granted"
DELIVERED = "delivered"
DEADLOCK = "deadlock"
#: A scheduled link transition was applied; detail is (fail|heal, channel).
FAULT = "fault"
#: A casualty was discarded for good; detail is (src, dest).
DROPPED = "dropped"
#: A casualty was queued for source retransmission; detail is
#: (src, dest, backoff delay in cycles).
RETRANSMITTED = "retransmitted"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        cycle: simulation cycle of the event.
        kind: one of ``created``, ``injected``, ``granted``,
            ``eject-granted``, ``delivered``, ``deadlock``, ``fault``,
            ``dropped``, ``retransmitted``.
        pid: packet id (-1 for network-wide events).
        detail: event-specific payload — the granted channel, the
            (source, destination) pair, etc.
    """

    cycle: int
    kind: str
    pid: int
    detail: object = None

    def __str__(self) -> str:
        return f"[{self.cycle:6d}] #{self.pid} {self.kind} {self.detail or ''}"


def _encode_detail(detail: object) -> object:
    """A JSON-ready encoding of an event detail; inverse of
    :func:`_decode_detail`.

    Details are scalars, nodes/endpoint tuples, channels, or tuples
    mixing those, so tuples and channels get tagged dict encodings and
    everything else passes through as-is.
    """
    if isinstance(detail, Channel):
        from repro.resilience.schedule import channel_to_dict

        return {"__kind__": "channel", **channel_to_dict(detail)}
    if isinstance(detail, tuple):
        return {
            "__kind__": "tuple",
            "items": [_encode_detail(item) for item in detail],
        }
    return detail


def _decode_detail(payload: object) -> object:
    """Rebuild a detail saved by :func:`_encode_detail`."""
    if isinstance(payload, dict):
        kind = payload.get("__kind__")
        if kind == "channel":
            from repro.resilience.schedule import channel_from_dict

            return channel_from_dict(payload)
        if kind == "tuple":
            return tuple(_decode_detail(item) for item in payload["items"])
    if isinstance(payload, list):
        return tuple(_decode_detail(item) for item in payload)
    return payload


class TraceRecorder:
    """Collects trace events up to a cap.

    Args:
        max_events: recording stops (and ``truncated`` is set) once this
            many events are stored.
    """

    def __init__(self, max_events: int = 100_000):
        if max_events < 1:
            raise ValueError(f"max_events must be positive: {max_events}")
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.truncated = False

    def record(self, cycle: int, kind: str, pid: int, detail=None) -> None:
        """Store one event (drops silently once the cap is hit)."""
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(TraceEvent(cycle, kind, pid, detail))

    def for_packet(self, pid: int) -> List[TraceEvent]:
        """The events of one packet, in order."""
        return [event for event in self.events if event.pid == pid]

    def path_of(self, pid: int) -> list:
        """The channels granted to a packet, in traversal order."""
        return [
            event.detail
            for event in self.events
            if event.pid == pid and event.kind == GRANTED
        ]

    def kinds(self) -> List[str]:
        """The sequence of event kinds (handy for assertions)."""
        return [event.kind for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization -------------------------------------------------

    def to_jsonl(self, path: Union[str, "IO[str]"]) -> None:
        """Write the trace as JSON Lines; inverse of :meth:`from_jsonl`.

        One event per line plus a leading header line recording the cap
        and truncation flag, so an offline replay knows whether it is
        looking at a complete run.

        Args:
            path: a file path, or an open text stream.
        """
        if hasattr(path, "write"):
            self._write_jsonl(path)  # type: ignore[arg-type]
            return
        with replace_file(path) as handle:
            self._write_jsonl(handle)

    def _write_jsonl(self, handle: "IO[str]") -> None:
        header = {
            "__kind__": "trace-header",
            "max_events": self.max_events,
            "truncated": self.truncated,
            "events": len(self.events),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for event in self.events:
            record = {
                "cycle": event.cycle,
                "kind": event.kind,
                "pid": event.pid,
                "detail": _encode_detail(event.detail),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, "IO[str]"]) -> "TraceRecorder":
        """Rebuild a recorder saved by :meth:`to_jsonl`.

        Round-trips events exactly (channels and tuples included), plus
        the cap and truncation flag.
        """
        if hasattr(path, "read"):
            lines = list(path)  # type: ignore[arg-type]
        else:
            with open(path, encoding="utf-8") as handle:
                lines = list(handle)
        rows = [json.loads(line) for line in lines if line.strip()]
        if not rows or rows[0].get("__kind__") != "trace-header":
            raise ValueError("not a trace JSONL file (missing header line)")
        header = rows[0]
        recorder = cls(max_events=int(header["max_events"]))
        for row in rows[1:]:
            recorder.events.append(
                TraceEvent(
                    cycle=int(row["cycle"]),
                    kind=str(row["kind"]),
                    pid=int(row["pid"]),
                    detail=_decode_detail(row["detail"]),
                )
            )
        recorder.truncated = bool(header["truncated"])
        return recorder
