"""End-to-end engine tests under runtime fault injection."""

import pytest

from repro.resilience import (
    FAIL,
    AbortRun,
    DropAndCount,
    FaultController,
    FaultEvent,
    FaultSchedule,
    SourceRetransmit,
)
from repro.routing import make_routing
from repro.sim import SimulationConfig, TraceRecorder, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution

MESH = (6, 6)
CONFIG = SimulationConfig(
    warmup_cycles=200, measure_cycles=1200, drain_cycles=800
)


def run_sim(
    schedule=None,
    policy=None,
    algorithm="west-first-nonminimal",
    load=0.08,
    seed=5,
    trace=None,
    controller_kwargs=None,
    config=CONFIG,
):
    mesh = Mesh2D(*MESH)
    routing = make_routing(algorithm, mesh)
    workload = Workload(
        pattern=UniformTraffic(mesh),
        sizes=SizeDistribution.fixed(4),
        offered_load=load,
        seed=seed,
    )
    controller = None
    if schedule is not None:
        controller = FaultController(
            schedule, policy, **(controller_kwargs or {})
        )
    sim = WormholeSimulator(
        routing, workload, config, trace=trace, resilience=controller
    )
    result = sim.run()
    return result, controller, sim


def fault_schedule(count=4, seed=3, heal_after=None, require_connected=True):
    mesh = Mesh2D(*MESH)
    return FaultSchedule.random(
        mesh,
        count,
        seed=seed,
        window=(CONFIG.warmup_cycles, CONFIG.warmup_cycles + 600),
        heal_after=heal_after,
        require_connected=require_connected,
    )


class TestNoFaultIdentity:
    def test_empty_schedule_bit_identical(self):
        plain, _, _ = run_sim(schedule=None)
        guarded, controller, _ = run_sim(schedule=FaultSchedule(()))
        assert guarded == plain
        assert controller.stats.faults_applied == 0
        assert controller.stats.casualties == 0

    def test_empty_schedule_identical_under_load(self):
        plain, _, _ = run_sim(schedule=None, load=0.25, algorithm="xy")
        guarded, _, _ = run_sim(
            schedule=FaultSchedule(()), load=0.25, algorithm="xy"
        )
        assert guarded == plain


class TestDropPolicy:
    def test_faults_applied_and_accounted(self):
        schedule = fault_schedule(count=4)
        result, controller, sim = run_sim(schedule, DropAndCount())
        stats = controller.stats
        assert stats.faults_applied == 4
        assert stats.recertifications > 0
        assert stats.created > 0
        # Every created message is delivered, dropped, or still pending
        # (in flight or queued) at drain end.
        assert stats.delivered + stats.dropped <= stats.created
        assert stats.delivered == result.total_delivered
        assert 0.0 < stats.delivered_fraction <= 1.0
        assert sim._stats.dropped_packets == stats.dropped

    def test_trace_records_fault_events(self):
        schedule = fault_schedule(count=4)
        trace = TraceRecorder()
        run_sim(schedule, DropAndCount(), trace=trace)
        kinds = set(trace.kinds())
        assert "fault" in kinds
        faults = [event for event in trace.events if event.kind == "fault"]
        assert len(faults) == 4
        assert all(event.pid == -1 for event in faults)
        assert all(event.detail[0] == FAIL for event in faults)

    def test_dropped_events_traced_when_casualties_occur(self):
        # xy cannot route around faults, so casualties (and drops) are
        # all but guaranteed at this fault count.
        schedule = fault_schedule(count=8, seed=1)
        trace = TraceRecorder()
        _, controller, _ = run_sim(
            schedule, DropAndCount(), algorithm="xy", trace=trace
        )
        dropped = [event for event in trace.events if event.kind == "dropped"]
        assert controller.stats.dropped == len(dropped)
        assert controller.stats.dropped > 0


class TestRetransmitPolicy:
    def test_retransmissions_happen(self):
        schedule = fault_schedule(count=8, seed=1)
        policy = SourceRetransmit(base_delay=8, delay_cap=64, max_attempts=3)
        trace = TraceRecorder()
        result, controller, _ = run_sim(
            schedule, policy, algorithm="xy", trace=trace
        )
        stats = controller.stats
        assert stats.casualties > 0
        assert stats.retransmissions > 0
        retrans = [
            event for event in trace.events if event.kind == "retransmitted"
        ]
        assert len(retrans) == stats.retransmissions
        # A retried message that ultimately gives up is dropped for good.
        assert stats.dropped + stats.delivered_after_recovery + stats.unresolved > 0

    def test_adaptive_algorithm_recovers_messages(self):
        # The nonminimal router re-derives reachability on the degraded
        # topology, so retransmitted messages can actually get through.
        schedule = fault_schedule(count=6, seed=2)
        policy = SourceRetransmit(base_delay=4, delay_cap=32, max_attempts=6)
        result, controller, _ = run_sim(schedule, policy, load=0.06)
        stats = controller.stats
        assert stats.faults_applied == 6
        if stats.casualties:
            assert stats.delivered_after_recovery + stats.dropped + stats.unresolved > 0
        assert stats.delivered_fraction > 0.9


class TestAbortPolicy:
    def test_run_stops_at_first_casualty(self):
        schedule = fault_schedule(count=8, seed=1)
        result, controller, _ = run_sim(schedule, AbortRun(), algorithm="xy")
        assert controller.stats.aborted
        assert controller.stats.casualties == 1
        # The clock stopped at the casualty, well before the full run.
        total = (
            CONFIG.warmup_cycles + CONFIG.measure_cycles + CONFIG.drain_cycles
        )
        assert controller.stats.end_cycle < total


class TestHealing:
    def test_heals_restore_throughput(self):
        schedule = fault_schedule(count=4, heal_after=150)
        result, controller, _ = run_sim(schedule, DropAndCount())
        stats = controller.stats
        assert stats.faults_applied == 4
        assert stats.heals_applied == 4
        assert controller.failed == frozenset()
        assert controller.current_compiled is None
