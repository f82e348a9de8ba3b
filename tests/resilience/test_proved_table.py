"""The engine routes on the very table that was proved.

On every fault event the controller derives the degraded routing's
table from the run's healthy one (or, for a routing it cannot derive,
compiles it against the run's channel index), the recertifier proves
*that* table's closure, and the engine adopts it — so a refuted table
never becomes the engine's.
"""

import pytest

import repro.verify
from repro.resilience import DropAndCount, FaultController, FaultSchedule
from repro.resilience.controller import DegradedRouting
from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.digest import result_digest
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution
from repro.verify import CertificationError

CONFIG = SimulationConfig(warmup_cycles=200, measure_cycles=1200, drain_cycles=800)
WINDOW = (CONFIG.warmup_cycles, CONFIG.warmup_cycles + 600)


def build(name, *, factory=None, recertify=True, faults=4, heal_after=None):
    mesh = Mesh2D(6, 6)
    routing = make_routing(name, mesh)
    schedule = FaultSchedule.random(
        mesh, faults, seed=3, window=WINDOW, heal_after=heal_after,
        require_connected=True,
    )
    controller = FaultController(
        schedule, DropAndCount(), routing_factory=factory, recertify=recertify
    )
    workload = Workload(
        pattern=UniformTraffic(mesh), sizes=SizeDistribution.fixed(4),
        offered_load=0.08, seed=5,
    )
    sim = WormholeSimulator(routing, workload, CONFIG, resilience=controller)
    return sim, controller


def rebuild_by_name(name):
    return lambda degraded: make_routing(name, degraded)


@pytest.fixture
def proofs(monkeypatch):
    """Every closure handed to the recertifier, in order."""
    seen = []
    original = repro.verify.recertify

    def recording(topology, routing, topology_label="", closure=None):
        seen.append(closure)
        return original(topology, routing, topology_label, closure)

    monkeypatch.setattr(repro.verify, "recertify", recording)
    return seen


@pytest.fixture
def adoptions(monkeypatch):
    """The compiled table behind the engine's view after every refresh,
    with how many entries it held at that moment."""
    seen = []
    original = WormholeSimulator._refresh_routing

    def recording(self, ctrl):
        original(self, ctrl)
        view = self.route_cache
        seen.append((view.compiled, view.prefilled_entries))

    monkeypatch.setattr(WormholeSimulator, "_refresh_routing", recording)
    return seen


class TestAdoption:
    @pytest.mark.parametrize(
        "name, factory",
        [("xy", None), ("west-first-nonminimal", rebuild_by_name("west-first-nonminimal"))],
        ids=["filter", "rebuild"],
    )
    def test_adopted_table_is_the_proved_object(self, name, factory, proofs, adoptions):
        sim, controller = build(name, factory=factory)
        sim.run()
        assert controller.stats.recertifications == len(proofs) == 4
        assert len(adoptions) == 4
        for closure, (adopted, prefilled) in zip(proofs, adoptions):
            assert closure is not None
            assert adopted is closure.compiled
            assert adopted.index is sim._index
            # It arrives holding every source state and more.
            assert prefilled >= 36 * 35
        # Four distinct tables: one per degraded configuration.
        assert len({id(table) for table, _ in adoptions}) == 4
        assert controller.current_compiled is adoptions[-1][0]

    def test_full_heal_returns_to_the_original_table(self, adoptions):
        sim, controller = build("west-first-nonminimal",
                                factory=rebuild_by_name("west-first-nonminimal"),
                                faults=2, heal_after=150)
        healthy = sim.route_cache.compiled
        sim.run()
        assert controller.stats.heals_applied == 2
        assert controller.current_compiled is None
        assert adoptions[-1][0] is healthy
        assert sim.route_cache.compiled is healthy

    def test_refuted_table_aborts_and_is_never_adopted(self, adoptions):
        sim, controller = build(
            "west-first-nonminimal",
            factory=lambda degraded: unrestricted_adaptive_routing(degraded),
        )
        healthy = sim.route_cache.compiled
        with pytest.raises(CertificationError, match="dependency cycle"):
            sim.run()
        assert adoptions == []
        assert sim.route_cache.compiled is healthy
        assert controller.stats.recertifications == 0
        assert sim.cycle >= WINDOW[0]


class CallLog:
    """Degraded algorithms, and every ``route`` call that reaches one."""

    def __init__(self):
        self.routings = []
        self.calls = []

    def wrap(self, routing):
        inner = routing.route

        def route(in_channel, node, dest):
            self.calls.append((id(routing), (in_channel, node, dest)))
            return inner(in_channel, node, dest)

        routing.route = route
        self.routings.append(routing)
        return routing

    def factory(self, name):
        return lambda degraded: self.wrap(make_routing(name, degraded))


class TestNoRouteCallForProvedStates:
    """A degraded table is read off the run's healthy table, so from
    compile through proof to the engine's last lookup nothing asks the
    degraded algorithm; it is the definition the adopted table names."""

    def test_rebuild_mode(self, adoptions):
        log = CallLog()
        sim, controller = build("west-first-nonminimal",
                                factory=log.factory("west-first-nonminimal"))
        result = sim.run()
        assert controller.stats.recertifications == 4
        assert result.total_delivered > 0
        assert len(log.routings) == 4
        assert [table.routing for table, _ in adoptions] == log.routings
        assert log.calls == []

    def test_filter_mode(self, monkeypatch, adoptions):
        log = CallLog()
        init = DegradedRouting.__init__

        def wrapped_init(self, *args):
            init(self, *args)
            log.wrap(self)

        monkeypatch.setattr(DegradedRouting, "__init__", wrapped_init)
        sim, controller = build("west-first")
        sim.run()
        assert controller.stats.recertifications == 4
        assert len(log.routings) == 4
        assert [table.routing for table, _ in adoptions] == log.routings
        assert log.calls == []

    def test_without_recertification_the_result_is_the_proved_run_s(self):
        log = CallLog()
        sim, controller = build("west-first-nonminimal", recertify=False,
                                factory=log.factory("west-first-nonminimal"))
        unproved = sim.run()
        assert controller.stats.recertifications == 0
        assert controller.recertify_s == 0.0
        assert len(log.routings) == 4
        assert log.calls == []

        proved_sim, _ = build("west-first-nonminimal",
                              factory=rebuild_by_name("west-first-nonminimal"))
        assert result_digest(proved_sim.run()) == result_digest(unproved)
