"""The sampling metrics collector the engine consults during a run.

:class:`MetricsCollector` follows the same cheap hook discipline as the
resilience :class:`~repro.resilience.controller.FaultController`: the
engine holds an ``Optional`` reference and every hook site is a single
``is not None`` test, so a run without observability pays a handful of
comparisons per cycle and nothing else.  When enabled, every hook is
**read-only** with respect to simulation state — the collector is told
of counters and channel events, never mutates engine state, and draws
random numbers only from its private reservoir stream — which is what
makes instrumentation bit-invisible to the golden digests
(``tests/obs/test_digest_invisibility.py``).

What is collected (all knobs on :class:`~repro.obs.spec.ObsSpec`):

* counters and gauges: flits moved, packet injections and deliveries,
  park/wake events of the waiter-parking optimization;
* per-channel utilization (sampled cycles a channel had an owner) and
  buffer occupancy (flits buffered on it, summed over the same
  samples), sampling each executed cycle whose number is a multiple of
  ``sample_every``;
* a reservoir-sampled packet latency distribution;
* a throughput/latency timeline bucketed by ``timeline_window`` cycles.

The channel accumulators are exact but event-driven: ``on_cycle_end``
only counts the sample, and the engine reports each network channel's
grant (with the fill it is granted with, as far as samples can tell),
each net fill change a move makes and each release.  A channel held
from sample count ``a`` to ``r`` was busy on ``r - a`` samples, and a
fill ``f`` standing from count ``s`` to ``t`` adds ``f * (t - s)`` to
its occupancy.  Both sums telescope — a grant subtracts the current
count from ``busy``, a release adds it back; a fill change from ``f`` to
``g`` adds ``(f - g) * count`` to ``occupancy``, a release ``f * count``
— so the collector keeps just one more value per channel, the fill it
last heard of.  A stalled or cruising worm, whose fills stand still,
costs nothing per cycle; channels still held when the run stops are
settled as released.  Mid-run the accumulators hold partial sums, so
:meth:`MetricsCollector.summary` refuses to read them before the run's
:meth:`~MetricsCollector.finish`.

Cycles skipped by the engine's idle fast-forward are never sampled —
they are, by construction, cycles on which nothing happened — so
utilization denominators count *observed* cycles; the summary reports
``cycles_total``, ``cycles_executed`` and ``cycles_observed`` so
downstream consumers can normalize either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.sampling import ReservoirSampler
from repro.obs.spec import ObsSpec
from repro.resilience.schedule import channel_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import WormholeSimulator
    from repro.sim.packet import Packet

__all__ = ["OBS_SCHEMA_VERSION", "MetricsCollector"]

#: Version of the metrics-summary dict layout produced by
#: :meth:`MetricsCollector.summary` (bumped on breaking key changes).
#: 2 stores the channel accumulators as columns; 1 kept one
#: ``per_channel`` record per channel, which
#: :func:`~repro.obs.manifest.load_manifest` still reads.
OBS_SCHEMA_VERSION = 2


class _TimelineBucket:
    """Mutable accumulator for one ``timeline_window``-wide cycle span."""

    __slots__ = (
        "start",
        "flit_moves",
        "injected_packets",
        "delivered_packets",
        "delivered_flits",
        "latency_sum",
    )

    def __init__(self, start: int) -> None:
        self.start = start
        self.flit_moves = 0
        self.injected_packets = 0
        self.delivered_packets = 0
        self.delivered_flits = 0
        self.latency_sum = 0.0

    def to_dict(self, window: int) -> Dict[str, Any]:
        delivered = self.delivered_packets
        return {
            "start": self.start,
            "end": self.start + window,
            "flit_moves": self.flit_moves,
            "injected_packets": self.injected_packets,
            "delivered_packets": delivered,
            "delivered_flits": self.delivered_flits,
            "avg_latency_cycles": (
                self.latency_sum / delivered if delivered else 0.0
            ),
        }


class MetricsCollector:
    """Gathers run metrics through the engine's observability hooks.

    Construct one per run, pass it to
    :class:`~repro.sim.engine.WormholeSimulator` (or
    ``make_simulator(..., obs=...)``), and read :meth:`summary`
    afterwards.  A collector is
    single-use: it binds to exactly one simulator.
    """

    def __init__(self, spec: Optional[ObsSpec] = None) -> None:
        self.spec = spec if spec is not None else ObsSpec()
        #: Headers parked on channel wake lists (engine-incremented).
        self.park_events = 0
        #: Parked headers woken by a channel release (engine-incremented).
        self.wake_events = 0
        #: ``on_cycle_end`` invocations (cycles the collector saw).
        self.cycles_observed = 0
        self.deliveries = 0
        self.delivered_flits = 0
        self._reservoir = ReservoirSampler(
            self.spec.latency_reservoir, seed=self.spec.reservoir_seed
        )
        self._bound = False
        self._finished = False
        self._channels: List[Any] = []
        # Per network channel id: the telescoped busy and occupancy sums
        # and the fill last reported (see the module docstring).
        self._busy: List[int] = []
        self._occupancy: List[int] = []
        self._fill: List[int] = []
        self._channel_samples = 0
        self._buckets: Dict[int, _TimelineBucket] = {}
        self._last_flit_moves = 0
        self._last_injected = 0
        self._totals: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Engine hooks

    def bind(self, sim: "WormholeSimulator") -> None:
        """Attach to a simulator (called once, from the engine's init)."""
        if self._bound:
            raise RuntimeError("MetricsCollector is single-use; already bound")
        self._bound = True
        if self.spec.channels:
            # topology.channels() order: deterministic, and network
            # channel i is the engine's channel id i.
            self._channels = sim.network_channels
            count = len(self._channels)
            self._busy = [0] * count
            self._occupancy = [0] * count
            self._fill = [0] * count
        self._last_flit_moves = sim.flit_moves
        self._last_injected = sim.total_injected

    def on_packet_delivered(self, packet: "Packet", cycle: int) -> None:
        """One packet fully consumed at its destination on ``cycle``."""
        latency = cycle - packet.create_time
        self.deliveries += 1
        self.delivered_flits += packet.size
        self._reservoir.offer(latency)
        if self.spec.timeline:
            bucket = self._bucket(cycle)
            bucket.delivered_packets += 1
            bucket.delivered_flits += packet.size
            bucket.latency_sum += latency

    def on_cycle_end(self, cycle: int, sim: "WormholeSimulator") -> None:
        """Sample engine state at the end of one executed cycle."""
        self.cycles_observed += 1
        spec = self.spec
        if spec.timeline:
            moved = sim.flit_moves
            injected = sim.total_injected
            if moved != self._last_flit_moves or injected != self._last_injected:
                bucket = self._bucket(cycle)
                bucket.flit_moves += moved - self._last_flit_moves
                bucket.injected_packets += injected - self._last_injected
                self._last_flit_moves = moved
                self._last_injected = injected
        if spec.channels and cycle % spec.sample_every == 0:
            self._channel_samples += 1

    def channel_acquired(self, ident: int, filled: bool) -> None:
        """Network channel ``ident`` was granted; ``filled``: the engine
        vouches that a flit will be on it from the next sample on, until
        a fill change or the release says otherwise."""
        samples = self._channel_samples
        self._busy[ident] -= samples
        if filled:
            self._occupancy[ident] -= samples
            self._fill[ident] = 1

    def fill_changed(self, ident: int, fill: int) -> None:
        """A move left ``fill`` flits on held network channel ``ident``."""
        self._occupancy[ident] += (self._fill[ident] - fill) * self._channel_samples
        self._fill[ident] = fill

    def channel_released(self, ident: int) -> None:
        """Network channel ``ident`` lost its owner (or the run stopped
        with it held)."""
        samples = self._channel_samples
        self._busy[ident] += samples
        fill = self._fill[ident]
        if fill:
            self._occupancy[ident] += fill * samples
            self._fill[ident] = 0

    def finish(self, sim: "WormholeSimulator") -> None:
        """Capture end-of-run totals (called once after the main loop)."""
        self._finished = True
        self._totals = {
            "cycles_total": sim.cycle + 1,
            "cycles_executed": sim.cycles_executed,
            "flit_moves": sim.flit_moves,
            "injected_packets": sim.total_injected,
            "delivered_packets": sim.total_delivered,
        }

    # ------------------------------------------------------------------
    # Reporting

    def _check_readable(self) -> None:
        if self._bound and not self._finished:
            raise RuntimeError(
                "MetricsCollector read before its run finished: the run "
                "totals and the channel accumulators are still partial"
            )

    def _bucket(self, cycle: int) -> _TimelineBucket:
        start = (cycle // self.spec.timeline_window) * self.spec.timeline_window
        bucket = self._buckets.get(start)
        if bucket is None:
            bucket = _TimelineBucket(start)
            self._buckets[start] = bucket
        return bucket

    def _channel_summary(self) -> Optional[Dict[str, Any]]:
        if not self.spec.channels:
            return None
        return {
            "samples": self._channel_samples,
            "sample_every": self.spec.sample_every,
            "channel": [channel_label(channel) for channel in self._channels],
            "busy_samples": list(self._busy),
            "occupancy_sum": list(self._occupancy),
        }

    def _timeline_summary(self) -> Optional[Dict[str, Any]]:
        if not self.spec.timeline:
            return None
        window = self.spec.timeline_window
        buckets = [
            self._buckets[start].to_dict(window)
            for start in sorted(self._buckets)
        ]
        return {"window": window, "buckets": buckets}

    def summary(self) -> Dict[str, Any]:
        """The full JSON-ready metrics summary for this run.

        Layout (``obs_schema_version`` 2): ``spec`` echoes the knobs,
        ``counters`` holds run totals plus park/wake event counts,
        ``latency_cycles`` the reservoir distribution, ``channels`` the
        per-channel accumulators (or ``None`` when disabled) and
        ``timeline`` the bucketed throughput/latency series (or
        ``None``).  ``channels`` holds ``samples`` and ``sample_every``
        and three columns in engine channel-id order: ``channel``
        (:func:`~repro.resilience.schedule.channel_label` strings),
        ``busy_samples`` and ``occupancy_sum``.  A channel's
        utilization and mean occupancy are those sums over ``samples``
        (0.0 when ``samples`` is 0); the report derives them, so they
        are not stored.  Documented in ``docs/observability.md``, with
        how schema-1 files are read.

        Raises:
            RuntimeError: the collector is bound to a run that has not
                finished (its totals and channel sums are partial).  A
                collector never bound summarises its empty state.
        """
        self._check_readable()
        counters = dict(self._totals)
        counters["cycles_observed"] = self.cycles_observed
        counters["park_events"] = self.park_events
        counters["wake_events"] = self.wake_events
        counters["observed_deliveries"] = self.deliveries
        counters["observed_delivered_flits"] = self.delivered_flits
        return {
            "obs_schema_version": OBS_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "counters": counters,
            "latency_cycles": self._reservoir.summary(),
            "channels": self._channel_summary(),
            "timeline": self._timeline_summary(),
        }

    def latency_values(self) -> List[float]:
        """The reservoir's raw latency samples (for tests and plots)."""
        return self._reservoir.values()

    @property
    def finished(self) -> bool:
        """Whether the bound run has completed (``finish`` was called)."""
        return self._finished

    def channel_records(self) -> List[Tuple[Any, int, int]]:
        """Raw ``(channel, busy_samples, occupancy_sum)`` triples."""
        self._check_readable()
        return [
            (channel, self._busy[index], self._occupancy[index])
            for index, channel in enumerate(self._channels)
        ]
