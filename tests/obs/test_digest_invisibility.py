"""Observability must be bit-invisible: the CI digest gate.

Every golden-digest scenario is re-run with a MetricsCollector attached
(per-cycle channel sampling, reservoir latency sampling, timeline
bucketing all enabled) and must reproduce the committed digest byte for
byte.  If collection perturbs as much as one low-order float bit of any
scenario, this fails loudly — the obs subsystem reads engine state, it
never participates in it.  The faulted scenarios run the same gate with
a live fault schedule, and what the collector reports is pinned too:
the sha256 of its summary (park/wake counters, per-channel busy and
occupancy, timeline), taken in the schema-1 layout the pins were
generated in, must match the committed ``obs_summary``; a
thinned summary must equal the reference oracle's.
"""

import json
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsCollector
from repro.obs.spec import ObsSpec
from repro.sim.digest import run_digest

from tests.sim.golden_scenarios import (
    ALL_SCENARIOS,
    OBS_SUMMARY_SPEC,
    build_scenario,
    obs_summary_digest,
)
from tests.sim.reference_engine import ReferenceSimulator

FIXTURE = Path(__file__).parent.parent / "sim" / "golden_digests.json"


@pytest.fixture(scope="module")
def fixtures():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_obs_enabled_run_matches_golden_digest(name, fixtures):
    collector = MetricsCollector(OBS_SUMMARY_SPEC)
    sim, trace = ALL_SCENARIOS[name](obs=collector)[:2]
    result = sim.run()
    assert run_digest(result, trace) == fixtures[name]["run"]
    # And the collector really was live, not a no-op.
    assert collector.finished
    summary = collector.summary()
    assert summary["counters"]["delivered_packets"] == result.total_delivered
    assert summary["counters"]["cycles_observed"] > 0
    assert obs_summary_digest(summary) == fixtures[name]["obs_summary"]


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_coarse_sampling_matches_golden_digest(name, fixtures):
    # Thinned channel sampling and a tiny reservoir take different
    # internal paths (modulo skip, reservoir eviction) — still invisible,
    # and what they report is the oracle's: a channel event between two
    # samples must land on the right one.
    spec = ObsSpec(sample_every=7, timeline_window=500, latency_reservoir=8)
    collector = MetricsCollector(spec)
    sim, trace = ALL_SCENARIOS[name](obs=collector)[:2]
    result = sim.run()
    assert run_digest(result, trace) == fixtures[name]["run"]
    oracle = MetricsCollector(spec)
    ALL_SCENARIOS[name](simulator_cls=ReferenceSimulator, obs=oracle)[0].run()
    assert collector.summary() == oracle.summary()


def test_obs_disabled_scenarios_still_match(fixtures):
    # Control: the plain path (obs=None) of one scenario, so a fixture
    # drift cannot masquerade as an obs effect in this module.
    name = "mesh6-west-first-transpose"
    sim, trace = build_scenario(name)
    assert run_digest(sim.run(), trace) == fixtures[name]["run"]
