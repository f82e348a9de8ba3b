"""The engine routes on the very table that was certified.

On every fault event the controller derives the degraded table from the
run's healthy one, checks that *that* table is a restriction of the
healthy table whose numbering was proved once, and the engine adopts it
— so an uncertified table never becomes the engine's.  No routing
object, no derived closure and no dependency graph is built on the way.
The exact proof of each derived table's own closure stays here, as the
oracle the restriction argument must agree with.
"""

import pytest

import repro.verify
from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    SweepExecutor,
)
from repro.analysis.prewarm import clear_warm_contexts
from repro.core.digraph import Digraph
from repro.experiments.presets import get_fault_sweep_preset
from repro.resilience import DropAndCount, FaultController, FaultSchedule
from repro.routing import make_routing
from repro.routing.base import RoutingAlgorithm
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.digest import result_digest
from repro.sim.ids import CompiledRoutes
from repro.topology import Mesh2D
from repro.topology.faults import FaultyTopology
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution
from repro.verify import PROVED, CertificationError, check_deadlock_freedom
from repro.verify.deadlock import is_monotone

from tests.resilience.test_executor_resilience import quick_preset_specs

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
def checks(monkeypatch):
    """Every degraded table whose restriction precondition was checked,
    in order."""
    seen = []
    original = repro.verify.recertify

    def recording(compiled):
        seen.append(compiled)
        return original(compiled)

    monkeypatch.setattr(repro.verify, "recertify", recording)
    return seen


@pytest.fixture
def derived(monkeypatch):
    """``(degraded table, failed channels)`` after every applied event
    that left a channel failed."""
    seen = []
    original = FaultController.advance

    def recording(self, cycle):
        applied = original(self, cycle)
        if applied and self.failed:
            seen.append((self.current_compiled, self.failed))
        return applied

    monkeypatch.setattr(FaultController, "advance", recording)
    return seen


def quick_faulted_specs():
    return [spec for spec in quick_preset_specs() if spec.resilience is not None]


@pytest.fixture
def adoptions(monkeypatch):
    """The compiled table the engine routes on after every refresh, with
    how many entries it held at that moment."""
    seen = []
    original = WormholeSimulator._refresh_routing

    def recording(self, ctrl):
        original(self, ctrl)
        table = self.route_cache
        seen.append((table, table.filled))

    monkeypatch.setattr(WormholeSimulator, "_refresh_routing", recording)
    return seen


class TestAdoption:
    @pytest.mark.parametrize("name", ["xy", "west-first-nonminimal"],
                             ids=["filter", "reach"])
    def test_adopted_table_is_the_proved_object(self, name, checks, adoptions):
        sim, controller = build(name)
        healthy = sim.route_cache
        sim.run()
        assert controller.stats.recertifications == len(checks) == 4
        assert healthy.numbering is not None
        assert len(adoptions) == 4
        for checked, (adopted, prefilled) in zip(checks, adoptions):
            assert adopted is checked
            assert adopted.parent is healthy
            assert adopted.index is sim._index
            assert adopted.routing is sim.routing
            # It arrives holding every source state and more.
            assert prefilled >= 36 * 35
        # Four distinct tables: one per degraded configuration.
        assert len({id(table) for table, _ in adoptions}) == 4
        assert controller.current_compiled is adoptions[-1][0]

    def test_full_heal_returns_to_the_original_table(self, adoptions):
        sim, controller = build("west-first-nonminimal", faults=2, heal_after=150)
        healthy = sim.route_cache
        sim.run()
        assert controller.stats.heals_applied == 2
        assert controller.current_compiled is None
        assert adoptions[-1][0] is healthy
        assert sim.route_cache is healthy

    def test_refuted_table_aborts_and_is_never_adopted(self, adoptions):
        # The healthy relation is cyclic: the first fault raises with the
        # healthy relation's own witness, and nothing is derived from it.
        sim, controller = build(
            None, routing=unrestricted_adaptive_routing(Mesh2D(6, 6))
        )
        healthy = sim.route_cache
        with pytest.raises(CertificationError, match="dependency cycle") as raised:
            sim.run()
        (check,) = raised.value.report.checks
        want = check_deadlock_freedom(sim.topology, sim.routing)
        assert check.to_dict() == want.to_dict()
        assert healthy.numbering is None
        assert adoptions == []
        assert sim.route_cache is healthy
        assert controller.current_compiled is None
        assert controller.stats.recertifications == 0
        assert sim.cycle >= WINDOW[0]


class TestTheExactProofAgrees:
    """The oracle: each derived configuration's own closure, proved from
    scratch, is deadlock free, and the healthy numbering the run relied
    on is strictly monotone on every one of its dependencies."""

    @pytest.mark.parametrize("name", ["xy", "west-first", "negative-first",
                                      "west-first-nonminimal"])
    def test_every_derived_configuration(self, name, derived):
        sim, controller = build(name, faults=6)
        healthy = sim.route_cache
        sim.run()
        assert controller.stats.recertifications == len(derived) == 6
        for table, failed in derived:
            closure = table.closure()
            check = check_deadlock_freedom(
                FaultyTopology(sim.topology, failed), sim.routing, closure
            )
            assert check.verdict == PROVED
            assert is_monotone(closure.succ, healthy.numbering)


class TestNothingIsAskedOrBuilt:
    """A degraded table is read off the run's healthy table, whose
    closure the first fault takes: from then on no ``route`` call is
    made, and no routing or faulted topology is built."""

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"],
                             ids=["filter", "reach"])
    def test_no_route_call_after_the_first_fault(self, name, monkeypatch):
        sim, controller = build(name)
        calls = []
        healthy = sim.route_cache
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
        for cls in (RoutingAlgorithm, FaultyTopology):
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

    def test_advance_takes_no_derived_closure_and_builds_no_graph(self, monkeypatch):
        closures = []
        graphs = []
        inside = []
        closure = CompiledRoutes.closure

        def counted_closure(self):
            if inside:
                closures.append(self)
            return closure(self)

        init = Digraph.__init__

        def counted_graph(self, *args, **kwargs):
            if inside:
                graphs.append(self)
            init(self, *args, **kwargs)

        advance = FaultController.advance

        def watched(self, cycle):
            inside.append(cycle)
            try:
                return advance(self, cycle)
            finally:
                inside.pop()

        monkeypatch.setattr(CompiledRoutes, "closure", counted_closure)
        monkeypatch.setattr(Digraph, "__init__", counted_graph)
        monkeypatch.setattr(FaultController, "advance", watched)
        specs = quick_faulted_specs()
        clear_warm_contexts()
        try:
            with SweepExecutor(jobs=1) as executor:
                outcomes = executor.run_points([PointSpec(spec=s) for s in specs])
        finally:
            clear_warm_contexts()
        assert all(o.resilience["recertifications"] > 0 for o in outcomes)
        assert graphs == []
        assert [table for table in closures if table.parent is not None] == []
        # The healthy closure is taken once per key, by its first
        # faulted point, and its proof serves the key's later points.
        keys = {spec.routing for spec in specs}
        assert sorted(table.routing.name for table in closures) == sorted(keys)

    def test_without_recertification_the_result_is_the_proved_run_s(self):
        sim, controller = build("west-first-nonminimal", recertify=False)
        unproved = sim.run()
        assert controller.stats.recertifications == 0
        assert controller.recertify_s == 0.0
        proved_sim, _ = build("west-first-nonminimal")
        assert result_digest(proved_sim.run()) == result_digest(unproved)
