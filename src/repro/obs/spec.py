"""Observability knobs as pure data (:class:`ObsSpec`).

The spec travels on :class:`~repro.analysis.executor.ExperimentSpec`
exactly like :class:`~repro.analysis.executor.ResilienceSpec` does: all
primitives, frozen, picklable, and content-hashable — and **omitted from
the canonical serialization when ``None``**, so every spec hash and
cache entry minted before observability existed is unchanged.  This
module deliberately imports nothing from the simulator or the executor;
it is leaf vocabulary both can share.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["ObsSpec"]


@dataclass(frozen=True)
class ObsSpec:
    """What the metrics subsystem samples during one run.

    Instrumentation is guaranteed bit-invisible: enabling any
    combination of these knobs never changes a run's
    :class:`~repro.sim.stats.SimulationResult` or trace digest, because
    the collector only reads engine state and draws from its own
    private RNG stream.

    Attributes:
        sample_every: channel-state sampling interval in cycles (1 =
            sample every executed cycle; otherwise the executed cycles
            whose number is a multiple of it).  Larger intervals thin
            the heatmap; they save no collection time, which is paid
            per channel event.
        timeline_window: width, in cycles, of each throughput/latency
            timeline bucket.
        latency_reservoir: capacity of the packet-latency reservoir
            sample (0 disables latency sampling; deliveries are still
            counted).
        reservoir_seed: seed of the reservoir's private RNG — private
            precisely so sampling can never perturb the workload or
            selection-policy streams.
        channels: collect per-channel utilization and buffer-occupancy
            accumulators (the heatmap data).
        timeline: collect the bucketed throughput/latency timeline.
    """

    sample_every: int = 1
    timeline_window: int = 200
    latency_reservoir: int = 1024
    reservoir_seed: int = 1
    channels: bool = True
    timeline: bool = True

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {self.sample_every}")
        if self.timeline_window < 1:
            raise ValueError(
                f"timeline_window must be >= 1: {self.timeline_window}"
            )
        if self.latency_reservoir < 0:
            raise ValueError(
                f"latency_reservoir must be >= 0: {self.latency_reservoir}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsSpec":
        """Rebuild a spec saved by :meth:`to_dict`."""
        return cls(**data)
