"""Golden-digest determinism tests: the engine's bit-identity contract.

Every scenario in :mod:`tests.sim.golden_scenarios` is run and its
:class:`~repro.sim.stats.SimulationResult` and trace event sequence are
hashed with the canonical serialization of :mod:`repro.sim.digest`; the
digests must match the committed fixtures byte for byte.  Any engine
optimization that changes *any* observable of *any* seeded run — a
low-order float bit of an average, a reordered trace event, a shifted
deadlock cycle — fails here loudly.

The faulted scenarios pin the same three digests for runs with a live
fault schedule, plus the resilience ledger each one ends with.

If a behavior change is intended, regenerate the fixtures with
``python scripts/regen_golden_digests.py`` and justify the change in the
commit message.
"""

import json
from pathlib import Path

import pytest

from repro.sim.digest import result_digest, run_digest, trace_digest

from tests.sim.golden_scenarios import (
    ALL_SCENARIOS,
    FAULTED_SCENARIOS,
    build_scenario,
    summary_digest,
)

FIXTURE = Path(__file__).parent / "golden_digests.json"


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs():
    """Run every scenario once; share the outcomes across tests: per
    name ``(simulator, trace, result)``, with the fault controller in
    the simulator's place for a faulted scenario."""
    outcomes = {}
    for name, build in ALL_SCENARIOS.items():
        sim, trace, *controller = build()
        result = sim.run()
        outcomes[name] = (controller[0] if controller else sim, trace, result)
    return outcomes


class TestGoldenDigests:
    def test_fixture_covers_every_scenario(self, fixtures):
        assert sorted(fixtures) == sorted(ALL_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_result_digest(self, name, fixtures, runs):
        _, _, result = runs[name]
        assert result_digest(result) == fixtures[name]["result"]

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_trace_digest(self, name, fixtures, runs):
        _, trace, _ = runs[name]
        assert len(trace.events) == fixtures[name]["trace_events"]
        assert trace_digest(trace) == fixtures[name]["trace"]

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_joint_run_digest(self, name, fixtures, runs):
        _, trace, result = runs[name]
        assert run_digest(result, trace) == fixtures[name]["run"]

    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_headline_outcomes(self, name, fixtures, runs):
        # Redundant with the digests, but failures read much better.
        _, _, result = runs[name]
        assert result.total_delivered == fixtures[name]["total_delivered"]
        assert result.deadlocked == fixtures[name]["deadlocked"]


    @pytest.mark.parametrize("name", sorted(FAULTED_SCENARIOS))
    def test_resilience_ledger_digest(self, name, fixtures, runs):
        controller, _, _ = runs[name]
        ledger = controller.stats.summary()
        assert ledger["faults_applied"] > 0
        assert summary_digest(ledger) == fixtures[name]["ledger"]

    def test_fail_heal_scenario_ends_on_the_healthy_routing(self, runs):
        controller, _, _ = runs["mesh6-nonminimal-fail-heal"]
        assert controller.stats.heals_applied == controller.stats.faults_applied
        assert controller.current_compiled is None


class TestNoFaultResilienceIdentity:
    def test_idle_fault_controller_is_bit_invisible(self, runs):
        # The engine's resilience hooks must not perturb a single bit of
        # a run whose fault schedule is empty.
        _, plain_trace, plain = runs["mesh6-west-first-transpose"]
        _, guarded_trace, guarded = runs["mesh6-west-first-nofault-resilience"]
        assert run_digest(guarded, guarded_trace) == run_digest(
            plain, plain_trace
        )


class TestRunToRunDeterminism:
    def test_rebuilt_scenario_reproduces_itself(self):
        name = "mesh6-west-first-transpose"
        first_sim, first_trace = build_scenario(name)
        first = first_sim.run()
        second_sim, second_trace = build_scenario(name)
        second = second_sim.run()
        assert run_digest(first, first_trace) == run_digest(second, second_trace)
