"""The cruise state, worm by worm.

A worm whose ejection channel is granted, whose source still has flits
and whose held buffers are all full does the same thing every cycle, so
the engine stops calling ``_move1`` on it and advances all such worms in
aggregate (``WormholeSimulator._move1``, "Cruise").  Each scenario here
puts one or two long worms on an otherwise empty 5x5 mesh, so the stream
is the whole run, and compares the engine with the oracle
(``tests/sim/reference_engine.py``, which runs a plain loop of its own
and a mover call per packet per cycle) on result, trace, ledger, obs
summary, final cycle and the state of every packet still in flight.
"""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsCollector
from repro.obs.spec import ObsSpec
from repro.resilience import (
    AbortRun,
    DropAndCount,
    FaultController,
    FaultSchedule,
    SourceRetransmit,
)
from repro.resilience.schedule import FaultEvent
from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.digest import run_digest
from repro.sim.trace import TraceRecorder
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution

from tests.sim.reference_engine import ReferenceSimulator

SIZE = 200
#: (0,0) -> (3,0) under xy: injection, three hops east, ejection.
LONE = [((0, 0), (3, 0), SIZE, 0.0)]
HELD = 5
#: A second worm on disjoint channels, streaming at the same time.
PAIR = LONE + [((0, 4), (4, 4), SIZE, 0.0)]


def _config(**overrides):
    knobs = dict(warmup_cycles=0, measure_cycles=400, drain_cycles=0,
                 max_packets=0)
    knobs.update(overrides)
    return SimulationConfig(**knobs)


def _run(simulator_cls, preload, config, *, events=(), policy=None,
         obs_spec=None):
    mesh = Mesh2D(5, 5)
    workload = Workload(
        pattern=UniformTraffic(mesh), sizes=SizeDistribution.fixed(SIZE),
        offered_load=0.0, seed=1,
    )
    trace = TraceRecorder(max_events=100_000)
    controller = None
    if events:
        by_direction = {
            (ch.src, ch.dst): ch for ch in mesh.channels()
        }
        controller = FaultController(
            FaultSchedule(
                FaultEvent(cycle, kind, by_direction[ends])
                for cycle, kind, ends in events
            ),
            policy, recertify=False,
        )
    collector = MetricsCollector(obs_spec) if obs_spec is not None else None
    sim = simulator_cls(make_routing("xy", mesh), workload, config,
                        preload=preload, trace=trace, resilience=controller,
                        obs=collector)
    calls = []
    move1 = sim._move1
    sim._move1 = lambda packet, stats: calls.append(packet.pid) or move1(
        packet, stats
    )
    result = sim.run()
    return SimpleNamespace(
        sim=sim, result=result, move1_calls=len(calls),
        digest=run_digest(result, trace),
        ledger=controller.stats.summary() if controller else None,
        summary=collector.summary() if collector else None,
        in_flight=[
            (p.pid, p.flits_consumed, p.remaining_to_inject,
             p.flits_in_network)
            for p in sim._active
        ],
    )


def _both(preload, config, **kwargs):
    """Run the scenario on the engine and on the oracle; they must agree
    on everything either can report."""
    new = _run(WormholeSimulator, preload, config, **kwargs)
    ref = _run(ReferenceSimulator, preload, config, **kwargs)
    assert new.digest == ref.digest
    assert new.ledger == ref.ledger
    assert new.summary == ref.summary
    assert new.sim.cycle == ref.sim.cycle
    assert new.sim.flit_moves == ref.sim.flit_moves
    assert new.in_flight == ref.in_flight
    for _pid, consumed, remaining, buffered in new.in_flight:
        assert consumed + remaining + buffered == SIZE
    assert not new.sim._cruise_exits and new.sim._cruising == 0
    assert new.sim._cruise_moves == 0
    assert ref.sim.cruise_entries == 0
    # Nothing ever blocks these worms, so the oracle's movement passes
    # are the engine's plus exactly the cycles it cruised over.
    assert new.move1_calls + new.sim.cruise_worm_cycles == ref.move1_calls
    return new, ref


class TestALoneWorm:
    def test_costs_a_mover_call_per_phase_change_not_per_cycle(self):
        new, ref = _both(LONE, _config())
        assert new.result.total_delivered == 1
        # The oracle pays one call per cycle from injection to delivery.
        assert ref.move1_calls >= SIZE
        # The engine pays for filling the pipe and for draining it.
        assert new.move1_calls <= 2 * HELD + 2
        assert new.sim.cruise_entries == 1

    def test_counts_delivered_flits_across_both_window_boundaries(self):
        # The stream covers cycles ~5..205; the window is [50, 110).
        new, _ = _both(LONE, _config(warmup_cycles=50, measure_cycles=60,
                                     drain_cycles=200))
        assert new.sim.cruise_entries == 1
        assert new.result.delivered_flits == 60
        assert new.result.total_delivered == 1

    def test_streaming_is_progress_to_the_watchdog(self):
        new, _ = _both(LONE, _config(deadlock_threshold=50))
        assert not new.result.deadlocked
        assert new.result.total_delivered == 1

    def test_max_packets_drain_ends_on_the_delivery_cycle(self):
        new, ref = _both(LONE, _config(measure_cycles=5_000))
        assert new.result.total_delivered == 1
        assert new.sim.cycle == ref.sim.cycle < 2 * SIZE
        assert new.sim.cycles_executed == ref.sim.cycles_executed

    def test_clock_stopping_mid_stream_settles_the_worm(self):
        # No max_packets drain: the budget ends while the worm cruises.
        new, _ = _both(LONE, _config(measure_cycles=120, max_packets=None))
        ((_pid, consumed, remaining, buffered),) = new.in_flight
        assert buffered == HELD and remaining > 0
        assert consumed == new.result.delivered_flits
        # It entered the cruise as its header reached the ejection
        # buffer, so every flit consumed so far was consumed cruising.
        assert new.sim.cruise_worm_cycles == consumed

    def test_timeline_buckets_see_every_cruise_cycle(self):
        spec = ObsSpec(sample_every=1, timeline_window=1)
        new, _ = _both(LONE, _config(), obs_spec=spec)
        per_cycle = [
            bucket["flit_moves"]
            for bucket in new.summary["timeline"]["buckets"]
        ]
        # Consume one, shift the rest up, inject one.
        assert per_cycle.count(HELD + 1) >= SIZE - 2 * HELD
        assert sum(per_cycle) == new.sim.flit_moves
        assert new.summary["counters"]["cycles_executed"] == (
            new.sim.cycles_executed
        )


class TestACasualtyWhileCruising:
    #: The middle hop of the first worm's path fails mid-stream; under
    #: retransmission it heals before the last attempt gives up.
    FAIL = (100, "fail", ((1, 0), (2, 0)))
    HEAL = (130, "heal", ((1, 0), (2, 0)))

    @pytest.mark.parametrize("policy, events, delivered", [
        (DropAndCount(), [FAIL], 1),
        (SourceRetransmit(base_delay=4, delay_cap=16, max_attempts=6),
         [FAIL, HEAL], 2),
    ], ids=["drop", "retransmit"])
    def test_matches_the_oracle(self, policy, events, delivered):
        new, _ = _both(PAIR, _config(measure_cycles=2_000), events=events,
                       policy=policy,
                       obs_spec=ObsSpec(sample_every=1, timeline_window=1))
        assert new.ledger["casualties"] >= 1
        assert new.result.total_delivered == delivered
        # The victim left the cruise early; its neighbour streamed on.
        assert new.sim.cruise_entries == 1 + delivered
        assert new.move1_calls < SIZE

    def test_abort_stops_before_the_cycle_moves(self):
        new, _ = _both(PAIR, _config(measure_cycles=2_000),
                       events=[self.FAIL], policy=AbortRun())
        assert new.sim.cycle == 100
        assert new.result.total_delivered == 0
        # The surviving worm is settled up to cycle 99, the last to move.
        # (Its path is one hop longer than the victim's.)
        ((_pid, consumed, remaining, buffered),) = new.in_flight
        assert buffered == HELD + 1 and remaining > 0
