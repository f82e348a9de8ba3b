"""The engine routes on the very table that was proved.

On every fault event the controller derives the degraded table from the
run's healthy one, the recertifier proves *that* table's closure, and
the engine adopts it — so a refuted table never becomes the engine's.
No routing object is built on the way.
"""

import pytest

import repro.verify
from repro.analysis.executor import ConfigSpec, ExperimentSpec, ResilienceSpec
from repro.experiments.presets import get_fault_sweep_preset
from repro.resilience import DropAndCount, FaultController, FaultSchedule
from repro.routing import make_routing
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_table import ReachabilityOracle
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.digest import result_digest
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution
from repro.verify import CertificationError

CONFIG = SimulationConfig(warmup_cycles=200, measure_cycles=1200, drain_cycles=800)
WINDOW = (CONFIG.warmup_cycles, CONFIG.warmup_cycles + 600)


def build(name, *, routing=None, recertify=True, faults=4, heal_after=None):
    mesh = Mesh2D(6, 6)
    if routing is None:
        routing = make_routing(name, mesh)
    schedule = FaultSchedule.random(
        mesh, faults, seed=3, window=WINDOW, heal_after=heal_after,
        require_connected=True,
    )
    controller = FaultController(schedule, DropAndCount(), recertify=recertify)
    workload = Workload(
        pattern=UniformTraffic(mesh), sizes=SizeDistribution.fixed(4),
        offered_load=0.08, seed=5,
    )
    sim = WormholeSimulator(routing, workload, CONFIG, resilience=controller)
    return sim, controller


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
    @pytest.mark.parametrize("name", ["xy", "west-first-nonminimal"],
                             ids=["filter", "reach"])
    def test_adopted_table_is_the_proved_object(self, name, proofs, adoptions):
        sim, controller = build(name)
        sim.run()
        assert controller.stats.recertifications == len(proofs) == 4
        assert len(adoptions) == 4
        for closure, (adopted, prefilled) in zip(proofs, adoptions):
            assert closure is not None
            assert adopted is closure.compiled
            assert adopted.index is sim._index
            assert adopted.routing is sim.routing
            # It arrives holding every source state and more.
            assert prefilled >= 36 * 35
        # Four distinct tables: one per degraded configuration.
        assert len({id(table) for table, _ in adoptions}) == 4
        assert controller.current_compiled is adoptions[-1][0]

    def test_full_heal_returns_to_the_original_table(self, adoptions):
        sim, controller = build("west-first-nonminimal", faults=2, heal_after=150)
        healthy = sim.route_cache.compiled
        sim.run()
        assert controller.stats.heals_applied == 2
        assert controller.current_compiled is None
        assert adoptions[-1][0] is healthy
        assert sim.route_cache.compiled is healthy

    def test_refuted_table_aborts_and_is_never_adopted(self, adoptions):
        # The healthy relation is cyclic, and so is its restriction.
        sim, controller = build(
            None, routing=unrestricted_adaptive_routing(Mesh2D(6, 6))
        )
        healthy = sim.route_cache.compiled
        with pytest.raises(CertificationError, match="dependency cycle"):
            sim.run()
        assert adoptions == []
        assert sim.route_cache.compiled is healthy
        assert controller.stats.recertifications == 0
        assert sim.cycle >= WINDOW[0]


class TestNothingIsAskedOrBuilt:
    """A degraded table is read off the run's healthy table, whose
    closure the first fault takes: from then on no ``route`` call is
    made, and no routing or reachability oracle is built."""

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"],
                             ids=["filter", "reach"])
    def test_no_route_call_after_the_first_fault(self, name, monkeypatch):
        sim, controller = build(name)
        calls = []
        healthy = sim.route_cache.compiled
        inner = healthy.route
        monkeypatch.setattr(healthy, "route",
                            lambda *state: calls.append(state) or inner(*state))
        advance = controller.advance
        marks = []

        def marked(cycle):
            applied = advance(cycle)
            if applied:
                marks.append(len(calls))
            return applied

        monkeypatch.setattr(controller, "advance", marked)
        result = sim.run()
        assert controller.stats.recertifications == 4
        assert result.total_delivered > 0
        assert len(marks) == 4
        assert len(calls) == marks[0] > 0

    @pytest.mark.parametrize(
        "name", get_fault_sweep_preset("quick").algorithms
    )
    def test_advance_builds_no_routing(self, name, monkeypatch):
        preset = get_fault_sweep_preset("quick")
        built = []
        inside = []
        for cls in (RoutingAlgorithm, ReachabilityOracle):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                if inside:
                    built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        advance = FaultController.advance

        def watched(self, cycle):
            inside.append(cycle)
            try:
                return advance(self, cycle)
            finally:
                inside.pop()

        monkeypatch.setattr(FaultController, "advance", watched)
        spec = ExperimentSpec(
            topology=preset.topology(), routing=name, pattern=preset.pattern,
            load=preset.load, config=ConfigSpec.from_config(preset.sim_config()),
            resilience=ResilienceSpec(fault_count=max(preset.fault_counts),
                                      policy=preset.policy),
        )
        ledger = spec.run_full().resilience
        assert ledger["recertifications"] > 0
        assert built == []

    def test_without_recertification_the_result_is_the_proved_run_s(self):
        sim, controller = build("west-first-nonminimal", recertify=False)
        unproved = sim.run()
        assert controller.stats.recertifications == 0
        assert controller.recertify_s == 0.0
        proved_sim, _ = build("west-first-nonminimal")
        assert result_digest(proved_sim.run()) == result_digest(unproved)
