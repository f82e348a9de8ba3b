"""The differential oracle itself: its channel states, and the goldens.

``tests/sim/reference_engine.py`` is only worth comparing against while
it still is the engine that produced the committed golden digests, so
every scenario is replayed on it here too — with a collector bound as
well, because the oracle runs its own clock and ``cycles_executed`` (the
idle skip's footprint) is part of the pinned obs summary.
"""

import json
from pathlib import Path

import pytest

from repro.core.directions import EAST
from repro.obs.metrics import MetricsCollector
from repro.sim.digest import run_digest
from repro.sim.engine import WormholeSimulator
from repro.sim.packet import Packet
from repro.topology import Mesh2D

from tests.sim.golden_scenarios import (
    ALL_SCENARIOS,
    OBS_SUMMARY_SPEC,
    obs_summary_digest,
    summary_digest,
)
from tests.sim.reference_engine import (
    EJECTION,
    INJECTION,
    NETWORK,
    ChannelState,
    ReferenceSimulator,
)

FIXTURE = Path(__file__).parent / "golden_digests.json"


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_reference_engine_reproduces_the_golden_digests(name):
    fixture = json.loads(FIXTURE.read_text())[name]
    sim, trace, *controller = ALL_SCENARIOS[name](simulator_cls=ReferenceSimulator)
    assert run_digest(sim.run(), trace) == fixture["run"]
    if controller:
        ledger = controller[0].stats.summary()
        assert summary_digest(ledger) == fixture["ledger"]


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_reference_clock_reproduces_the_obs_summaries(name):
    fixture = json.loads(FIXTURE.read_text())[name]
    collector = MetricsCollector(OBS_SUMMARY_SPEC)
    sim, trace = ALL_SCENARIOS[name](
        simulator_cls=ReferenceSimulator, obs=collector
    )[:2]
    assert run_digest(sim.run(), trace) == fixture["run"]
    assert obs_summary_digest(collector.summary()) == fixture["obs_summary"]


def test_the_oracle_runs_its_own_clock():
    assert ReferenceSimulator.run is not WormholeSimulator.run


class TestChannelState:
    def test_network_state_needs_channel(self):
        with pytest.raises(ValueError):
            ChannelState(NETWORK, 1)

    def test_injection_state_needs_node(self):
        with pytest.raises(ValueError):
            ChannelState(INJECTION, 1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ChannelState(INJECTION, 0, node=(0, 0))

    def test_free_space(self):
        state = ChannelState(INJECTION, 3, node=(0, 0))
        assert state.free_space == 3
        state.count = 2
        assert state.free_space == 1

    def test_destination_node_network(self):
        mesh = Mesh2D(3, 3)
        channel = mesh.channel_in_direction((0, 0), EAST)
        state = ChannelState(NETWORK, 1, channel=channel)
        assert state.destination_node() == (1, 0)

    def test_destination_node_local(self):
        state = ChannelState(EJECTION, 1, node=(2, 2))
        assert state.destination_node() == (2, 2)

    def test_is_free_tracks_owner(self):
        state = ChannelState(INJECTION, 1, node=(0, 0))
        assert state.is_free
        state.owner = Packet(0, (0, 0), (1, 1), 4, 0.0)
        assert not state.is_free
