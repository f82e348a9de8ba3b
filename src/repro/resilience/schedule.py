"""Deterministic link fail/heal schedules for runtime fault injection.

A :class:`FaultSchedule` is the ground truth of a resilience run: an
ordered list of :class:`FaultEvent` records (fail or heal one channel at
one cycle) that the :class:`~repro.resilience.controller.FaultController`
replays against the engine.  Schedules are pure data — seed-derived,
serializable to JSON, and validated at construction — so the same
schedule string always produces the same degraded topologies, which is
what makes fault runs reproducible and safe to cache.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.core.directions import Direction
from repro.topology.base import Topology
from repro.topology.channels import Channel
from repro.topology.faults import sample_fault_channels

__all__ = [
    "FAIL",
    "HEAL",
    "FaultEvent",
    "FaultSchedule",
    "channel_from_dict",
    "channel_from_label",
    "channel_label",
    "channel_to_dict",
]

#: Event kind: the channel stops carrying flits at this cycle.
FAIL = "fail"
#: Event kind: a previously failed channel returns to service.
HEAL = "heal"

_KINDS = (FAIL, HEAL)


def channel_to_dict(channel: Channel) -> dict:
    """A JSON-ready encoding of one channel; inverse of
    :func:`channel_from_dict`."""
    return {
        "src": list(channel.src),
        "dst": list(channel.dst),
        "dim": channel.direction.dim,
        "sign": channel.direction.sign,
        "wraparound": channel.wraparound,
        "lane": channel.lane,
    }


def channel_from_dict(payload: dict) -> Channel:
    """Rebuild a channel saved by :func:`channel_to_dict`."""
    return Channel(
        src=tuple(payload["src"]),
        dst=tuple(payload["dst"]),
        direction=Direction(int(payload["dim"]), int(payload["sign"])),
        wraparound=bool(payload.get("wraparound", False)),
        lane=int(payload.get("lane", 0)),
    )


def channel_label(channel: Channel) -> str:
    """A compact string naming one channel; inverse of
    :func:`channel_from_label`.

    ``src>dst`` (``~`` in place of ``>`` for a wraparound channel), the
    coordinates comma-separated, then the direction as its sign and
    dimension, then ``#lane`` when the lane is not 0: ``3,4>3,5+1``,
    ``3,0~0,0-0``, ``0,1>1,1+0#1``.
    """
    direction = channel.direction
    label = (
        ",".join(map(str, channel.src))
        + ("~" if channel.wraparound else ">")
        + ",".join(map(str, channel.dst))
        + ("+" if direction.sign > 0 else "-")
        + str(direction.dim)
    )
    return f"{label}#{channel.lane}" if channel.lane else label


def _coordinates(text: str) -> Tuple[int, ...]:
    return tuple(int(value) for value in text.split(",")) if text else ()


def channel_from_label(label: str) -> Channel:
    """Rebuild a channel named by :func:`channel_label`.

    Raises:
        ValueError: ``label`` is not a channel label.
    """
    body, _, lane = label.partition("#")
    wraparound = "~" in body
    src, arrow, rest = body.partition("~" if wraparound else ">")
    # The dimension is digits only, so the last sign in ``rest`` is the
    # direction's; a negative coordinate's sign comes before it.
    cut = max(rest.rfind("+"), rest.rfind("-"))
    if not arrow or cut < 0:
        raise ValueError(f"not a channel label: {label!r}")
    return Channel(
        src=_coordinates(src),
        dst=_coordinates(rest[:cut]),
        direction=Direction(int(rest[cut + 1:]), 1 if rest[cut] == "+" else -1),
        wraparound=wraparound,
        lane=int(lane) if lane else 0,
    )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled link transition.

    Attributes:
        cycle: simulation cycle at which the transition takes effect
            (before that cycle's allocation phase).
        kind: :data:`FAIL` or :data:`HEAL`.
        channel: the unidirectional channel transitioning.
    """

    cycle: int
    kind: str
    channel: Channel

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"event cycle must be >= 0, got {self.cycle}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    def to_dict(self) -> dict:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "channel": channel_to_dict(self.channel),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        """Rebuild an event saved by :meth:`to_dict`."""
        return cls(
            cycle=int(payload["cycle"]),
            kind=str(payload["kind"]),
            channel=channel_from_dict(payload["channel"]),
        )


class FaultSchedule:
    """An immutable, validated sequence of fail/heal events.

    Events are stored sorted by cycle (ties keep the given order) and
    checked for consistency at construction: a channel may not fail
    while already failed, nor heal while healthy, so every prefix of the
    schedule defines a well-formed failed set.

    Args:
        events: the transitions, in any order.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(events, key=lambda event: event.cycle)
        failed: set = set()
        for event in ordered:
            if event.kind == FAIL:
                if event.channel in failed:
                    raise ValueError(
                        f"channel {event.channel} fails at cycle "
                        f"{event.cycle} while already failed"
                    )
                failed.add(event.channel)
            else:
                if event.channel not in failed:
                    raise ValueError(
                        f"channel {event.channel} heals at cycle "
                        f"{event.cycle} without a prior fault"
                    )
                failed.discard(event.channel)
        self.events: Tuple[FaultEvent, ...] = tuple(ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> "Iterator[FaultEvent]":
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:
        fails = sum(1 for event in self.events if event.kind == FAIL)
        return (
            f"FaultSchedule({len(self.events)} events, {fails} fail, "
            f"{len(self.events) - fails} heal)"
        )

    def channels(self) -> FrozenSet[Channel]:
        """Every channel the schedule ever touches."""
        return frozenset(event.channel for event in self.events)

    def peak_failed(self) -> FrozenSet[Channel]:
        """The union of all channels ever concurrently failed.

        (With no heals this is just :meth:`channels`; a schedule's worst
        degraded topology is a subset of this set at every cycle.)
        """
        return frozenset(
            event.channel for event in self.events if event.kind == FAIL
        )

    def validate_for(self, topology: Topology) -> None:
        """Raise ``ValueError`` unless every channel belongs to ``topology``."""
        known = set(topology.channels())
        unknown = self.channels() - known
        if unknown:
            raise ValueError(
                f"schedule touches channels not in {topology!r}: "
                f"{sorted(str(ch) for ch in unknown)}"
            )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSchedule":
        """Rebuild a schedule saved by :meth:`to_dict`."""
        return cls(FaultEvent.from_dict(entry) for entry in payload["events"])

    def to_json(self) -> str:
        """The schedule as a canonical JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Rebuild a schedule saved by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- generation ----------------------------------------------------

    @classmethod
    def random(
        cls,
        topology: Topology,
        count: int,
        seed: int = 0,
        window: Tuple[int, int] = (0, 1),
        heal_after: Optional[int] = None,
        require_connected: bool = True,
        max_attempts: int = 20,
    ) -> "FaultSchedule":
        """A seed-derived schedule of ``count`` link failures.

        The failed channels are drawn exactly as
        :func:`repro.topology.faults.random_channel_faults` draws them
        (same seed, same set), then each fault is assigned a uniform
        cycle inside ``window``.

        Args:
            topology: the healthy topology the schedule degrades.
            count: number of distinct channels to fail.
            seed: RNG seed; the schedule is a pure function of
                ``(topology, count, seed, window, heal_after)``.
            window: half-open ``[start, end)`` cycle range the failure
                cycles are drawn from.
            heal_after: when given, every fault heals this many cycles
                after it strikes (a transient-fault schedule); ``None``
                means faults are permanent.
            require_connected: resample (bounded) so the fully degraded
                topology stays strongly connected; raise otherwise.
            max_attempts: resampling bound for ``require_connected``.
        """
        start, end = window
        if count > 0 and end <= start:
            raise ValueError(f"empty fault window {window}")
        if heal_after is not None and heal_after < 1:
            raise ValueError(f"heal_after must be >= 1, got {heal_after}")
        rng = random.Random(seed)
        failed = sample_fault_channels(
            topology,
            count,
            rng,
            require_connected=require_connected,
            max_attempts=max_attempts,
        )
        cycles = sorted(rng.randrange(start, end) for _ in failed)
        events: List[FaultEvent] = []
        for cycle, channel in zip(cycles, failed):
            events.append(FaultEvent(cycle, FAIL, channel))
            if heal_after is not None:
                events.append(FaultEvent(cycle + heal_after, HEAL, channel))
        return cls(events)

    def failed_at(self, cycle: int) -> FrozenSet[Channel]:
        """The failed set after every event up to and including ``cycle``."""
        failed: set = set()
        for event in self.events:
            if event.cycle > cycle:
                break
            if event.kind == FAIL:
                failed.add(event.channel)
            else:
                failed.discard(event.channel)
        return frozenset(failed)
