"""Tests for the fault controller's engine-facing contract."""

from dataclasses import dataclass, field

import pytest

from repro.core.directions import EAST, NORTH
from repro.resilience import (
    FAIL,
    HEAL,
    FaultController,
    FaultEvent,
    FaultSchedule,
    SourceRetransmit,
    build_controller,
)
from repro.resilience.controller import degrade
from repro.routing import make_routing
from repro.sim.config import SimulationConfig
from repro.sim.ids import CompiledRoutes
from repro.verify.suite import CertificationError
from tests.sim.degraded import faulted_routing

INF = float("inf")


@dataclass
class FakePacket:
    """The packet fields the controller reads, nothing more."""

    src: tuple
    dest: tuple
    create_time: float = 0.0
    size: int = 4
    hops: int = 0


def bound_controller(mesh, schedule, policy=None, **kwargs):
    routing = make_routing("west-first-nonminimal", mesh)
    controller = FaultController(schedule, policy, **kwargs)
    controller.bind(routing, mesh)
    return controller, routing


class TestLifecycle:
    def test_idle_with_empty_schedule(self, mesh44):
        controller, routing = bound_controller(mesh44, FaultSchedule(()))
        assert controller.next_wake == INF
        assert controller.next_event_cycle == INF
        assert controller.current_compiled is None
        assert not controller.retries_pending

    def test_bind_validates_schedule(self, mesh44, cube4):
        foreign = cube4.channels()[0]
        schedule = FaultSchedule([FaultEvent(1, FAIL, foreign)])
        controller = FaultController(schedule)
        with pytest.raises(ValueError):
            controller.bind(make_routing("west-first-nonminimal", mesh44), mesh44)

    def test_advance_applies_due_events(self, mesh44):
        ch = mesh44.channel_in_direction((1, 1), EAST)
        schedule = FaultSchedule([FaultEvent(10, FAIL, ch)])
        controller, routing = bound_controller(mesh44, schedule)
        assert controller.next_wake == 10
        assert controller.advance(9) == []
        applied = controller.advance(10)
        assert [event.kind for event in applied] == [FAIL]
        assert controller.failed == frozenset([ch])
        degraded = controller.current_compiled
        assert degraded is not None
        assert degraded.routing is routing
        assert controller.next_wake == INF

    def test_heal_restores_healthy_pair(self, mesh44):
        ch = mesh44.channel_in_direction((1, 1), EAST)
        schedule = FaultSchedule(
            [FaultEvent(5, FAIL, ch), FaultEvent(20, HEAL, ch)]
        )
        controller, routing = bound_controller(mesh44, schedule)
        controller.advance(5)
        assert controller.failed
        controller.advance(20)
        assert controller.failed == frozenset()
        assert controller.current_compiled is None
        assert controller.stats.heals_applied == 1


class TestRecertification:
    def test_each_rebuild_recertified(self, mesh44):
        schedule = FaultSchedule.random(mesh44, 3, seed=2, window=(0, 30))
        controller, _ = bound_controller(mesh44, schedule)
        rebuilds = 0
        for event in schedule:
            if controller.advance(event.cycle):
                rebuilds += 1
        assert rebuilds > 0
        assert controller.stats.recertifications == rebuilds

    def test_recertify_can_be_disabled(self, mesh44):
        schedule = FaultSchedule.random(mesh44, 3, seed=2, window=(0, 30))
        controller, _ = bound_controller(mesh44, schedule, recertify=False)
        controller.advance(10**9)
        assert controller.stats.recertifications == 0
        assert controller.stats.faults_applied == 3

    def test_unsafe_degraded_routing_refuted(self, mesh44):
        # An adaptive relation with no turn restrictions is cyclic, and
        # so is its filtered restriction: the recertification gate must
        # catch it the moment a fault degrades the table.
        from repro.sim.deadlock import unrestricted_adaptive_routing

        ch = mesh44.channel_in_direction((1, 1), EAST)
        schedule = FaultSchedule([FaultEvent(1, FAIL, ch)])
        controller = FaultController(schedule)
        controller.bind(unrestricted_adaptive_routing(mesh44), mesh44)
        with pytest.raises(CertificationError):
            controller.advance(1)


class TestDegrade:
    """One rule picks the ids a fault drops, from the healthy routing."""

    @staticmethod
    def entries(mesh, name, failed):
        """``(source, dest, healthy entry, derived entry, failed ids)``
        for every injection state."""
        healthy = CompiledRoutes(make_routing(name, mesh))
        derived = degrade(healthy, frozenset(failed))
        index = healthy.index
        dead = {index.cid[channel] for channel in failed}
        for dest, dest_idx in index.node_id.items():
            for injection in range(index.inj_base, index.ej_base):
                source_idx = index.dest_node_id[injection]
                if source_idx != dest_idx:
                    yield (index.nodes[source_idx], dest,
                           healthy.lookup(injection, dest_idx),
                           derived.lookup(injection, dest_idx), dead)

    @pytest.mark.parametrize("name", ["xy", "west-first", "negative-first"])
    def test_minimal_routings_drop_the_failed_ids(self, mesh44, name):
        failed = [mesh44.channel_in_direction((1, 1), EAST)]
        for _, _, healthy, derived, dead in self.entries(mesh44, name, failed):
            assert derived == tuple(o for o in healthy if o not in dead)

    def test_nonminimal_turn_tables_drop_what_lost_reach(self, mesh44):
        # Both channels into the corner (3, 3) fail: every hop toward it
        # loses reach, live or dead.  What is left is what the turn
        # table re-made on the faulty mesh offers, in the same order.
        failed = [
            mesh44.channel_in_direction((2, 3), EAST),
            mesh44.channel_in_direction((3, 2), NORTH),
        ]
        name = "west-first-nonminimal"
        rebuilt = faulted_routing(make_routing(name, mesh44), frozenset(failed), mesh44)
        cid = {channel: ident for ident, channel in enumerate(mesh44.channels())}
        cut_off = 0
        for source, dest, healthy, derived, dead in self.entries(mesh44, name, failed):
            assert derived == tuple(cid[ch] for ch in rebuilt.route(None, source, dest))
            assert not dead.intersection(derived)
            if dest == (3, 3):
                assert derived == ()
                cut_off += len(set(healthy) - dead)
        assert cut_off > 0


class TestRecovery:
    def test_retransmit_flow(self, mesh44):
        policy = SourceRetransmit(base_delay=8, delay_cap=32, max_attempts=2)
        controller, _ = bound_controller(mesh44, FaultSchedule(()), policy)
        packet = FakePacket(src=(0, 0), dest=(3, 3), create_time=5.0)
        decision = controller.casualty(packet, 100)
        assert decision.action == "retry"
        assert decision.delay == 8
        assert controller.retries_pending
        assert controller.next_wake == 108
        assert controller.pop_retries(107) == []
        (entry,) = controller.pop_retries(108)
        ready, _seq, src, dest, size, create_time = entry
        assert (ready, src, dest, size, create_time) == (108, (0, 0), (3, 3), 4, 5.0)
        assert not controller.retries_pending
        # Second loss doubles the backoff; third exhausts the policy.
        assert controller.casualty(packet, 200).delay == 16
        controller.pop_retries(10**9)
        assert controller.casualty(packet, 300).action == "drop"
        assert controller.stats.retransmissions == 2
        assert controller.stats.dropped == 1
        assert controller.stats.casualties == 3

    def test_retry_heap_orders_by_ready_cycle(self, mesh44):
        policy = SourceRetransmit(base_delay=8, delay_cap=512, max_attempts=9)
        controller, _ = bound_controller(mesh44, FaultSchedule(()), policy)
        late = FakePacket(src=(0, 0), dest=(1, 1), create_time=1.0)
        early = FakePacket(src=(2, 2), dest=(3, 3), create_time=2.0)
        controller.casualty(late, 100)  # ready at 108
        controller.casualty(early, 90)  # ready at 98
        entries = controller.pop_retries(10**9)
        assert [entry[0] for entry in entries] == [98, 108]

    def test_abort_sets_flag(self, mesh44):
        from repro.resilience import AbortRun

        controller, _ = bound_controller(mesh44, FaultSchedule(()), AbortRun())
        decision = controller.casualty(FakePacket((0, 0), (1, 1)), 10)
        assert decision.action == "abort"
        assert controller.stats.aborted

    def test_delivery_accounting(self, mesh44):
        controller, _ = bound_controller(mesh44, FaultSchedule(()))
        direct = FakePacket((0, 0), (2, 1), create_time=0.0, hops=3)
        controller.on_delivered(direct, 50)
        detoured = FakePacket((0, 0), (2, 1), create_time=1.0, hops=7)
        controller.on_delivered(detoured, 60)
        stats = controller.stats
        assert stats.delivered == 2
        assert stats.detoured_packets == 1
        assert stats.detour_hops_total == 4

    def test_recovery_latency_tracked(self, mesh44):
        policy = SourceRetransmit()
        controller, _ = bound_controller(mesh44, FaultSchedule(()), policy)
        packet = FakePacket((0, 0), (3, 3), create_time=2.0, hops=6)
        controller.casualty(packet, 100)
        controller.pop_retries(10**9)
        controller.on_delivered(packet, 250)
        controller.finish(created=1, cycle=300)
        stats = controller.stats
        assert stats.delivered_after_recovery == 1
        assert stats.recovery_latency_cycles == [150]
        assert stats.unresolved == 0
        assert stats.summary()["recovery_latency_max"] == 150


class TestBuildController:
    def test_from_spec(self, mesh88):
        from repro.analysis.executor import ResilienceSpec

        spec = ResilienceSpec(fault_count=4, fault_seed=9, policy="retransmit")
        config = SimulationConfig(
            warmup_cycles=100, measure_cycles=400, drain_cycles=100
        )
        controller = build_controller(mesh88, spec, config)
        fails = [event for event in controller.schedule if event.kind == FAIL]
        assert len(fails) == 4
        assert all(100 <= event.cycle < 500 for event in fails)
        assert isinstance(controller.policy, SourceRetransmit)
        routing = make_routing("west-first-nonminimal", mesh88)
        controller.bind(routing, mesh88)
        controller.advance(10**9)
        assert controller.current_compiled.routing is routing
        assert controller.stats.recertifications > 0

    def test_minimal_algorithms_stay_certified(self, mesh88):
        # Minimal adaptive algorithms enforce their turn discipline via
        # candidate availability; re-made on a degraded topology they can
        # re-order hops and fail recertification (negative-first is the
        # clear case).  Filtered, every degraded configuration proves.
        from repro.analysis.executor import ResilienceSpec

        spec = ResilienceSpec(fault_count=6, fault_seed=2)
        config = SimulationConfig(
            warmup_cycles=100, measure_cycles=400, drain_cycles=100
        )
        for name in ("xy", "west-first", "negative-first"):
            controller = build_controller(mesh88, spec, config)
            controller.bind(make_routing(name, mesh88), mesh88)
            controller.advance(10**9)  # recertifies every degraded table
            assert controller.stats.recertifications > 0
