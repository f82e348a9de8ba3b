"""Tests for fault schedules: validation, serialization, generation."""

import pytest

from repro.core.directions import EAST, Direction
from repro.resilience import (
    FAIL,
    HEAL,
    FaultEvent,
    FaultSchedule,
    channel_from_dict,
    channel_from_label,
    channel_label,
    channel_to_dict,
)
from repro.topology import Mesh2D
from repro.topology.channels import Channel
from repro.topology.virtual import VirtualChannelTopology
from repro.topology.faults import FaultyTopology, is_strongly_connected
from repro.topology.spec import parse_topology


def east_channel(mesh, node=(1, 1)):
    return mesh.channel_in_direction(node, EAST)


class TestChannelCodec:
    def test_round_trip(self, mesh44):
        for channel in mesh44.channels():
            assert channel_from_dict(channel_to_dict(channel)) == channel

    def test_payload_is_json_ready(self, mesh44):
        import json

        payload = channel_to_dict(east_channel(mesh44))
        assert json.loads(json.dumps(payload)) == payload


class TestChannelLabel:
    @pytest.mark.parametrize(
        "topology",
        [
            parse_topology("mesh:4x4"),
            parse_topology("torus:4x3"),
            parse_topology("cube:4"),
            VirtualChannelTopology(Mesh2D(3, 3), 2),
        ],
        ids=["mesh:4x4", "torus:4x3", "cube:4", "mesh:3x3-2-lanes"],
    )
    def test_round_trip(self, topology):
        labels = [channel_label(channel) for channel in topology.channels()]
        assert len(set(labels)) == len(labels)
        for label, channel in zip(labels, topology.channels()):
            assert channel_from_label(label) == channel

    def test_every_field_is_in_the_label(self):
        torus = parse_topology("torus:4x3")
        assert any(channel.wraparound for channel in torus.channels())
        lanes = VirtualChannelTopology(Mesh2D(3, 3), 2)
        assert {channel.lane for channel in lanes.channels()} == {0, 1}
        channel = Channel((3, 0), (0, 0), Direction(0, -1), wraparound=True, lane=2)
        assert channel_label(channel) == "3,0~0,0-0#2"
        assert channel_from_label("3,0~0,0-0#2") == channel

    def test_negative_coordinates_and_wide_dimensions(self):
        channel = Channel((-1, 2), (-1, -3), Direction(11, -1))
        assert channel_from_label(channel_label(channel)) == channel

    @pytest.mark.parametrize("label", ["", "1,0", "1,0>2,0", "1,0>2,0+", "x>y+0"])
    def test_malformed_labels_are_refused(self, label):
        with pytest.raises(ValueError):
            channel_from_label(label)


class TestFaultEvent:
    def test_negative_cycle_rejected(self, mesh44):
        with pytest.raises(ValueError):
            FaultEvent(-1, FAIL, east_channel(mesh44))

    def test_bad_kind_rejected(self, mesh44):
        with pytest.raises(ValueError):
            FaultEvent(0, "explode", east_channel(mesh44))

    def test_dict_round_trip(self, mesh44):
        event = FaultEvent(17, HEAL, east_channel(mesh44))
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultSchedule:
    def test_events_sorted_by_cycle(self, mesh44):
        a = east_channel(mesh44, (0, 0))
        b = east_channel(mesh44, (1, 1))
        schedule = FaultSchedule([FaultEvent(9, FAIL, b), FaultEvent(3, FAIL, a)])
        assert [event.cycle for event in schedule] == [3, 9]
        assert len(schedule) == 2

    def test_double_fail_rejected(self, mesh44):
        ch = east_channel(mesh44)
        with pytest.raises(ValueError, match="already failed"):
            FaultSchedule([FaultEvent(1, FAIL, ch), FaultEvent(2, FAIL, ch)])

    def test_heal_without_fault_rejected(self, mesh44):
        with pytest.raises(ValueError, match="without a prior fault"):
            FaultSchedule([FaultEvent(1, HEAL, east_channel(mesh44))])

    def test_fail_heal_fail_is_valid(self, mesh44):
        ch = east_channel(mesh44)
        schedule = FaultSchedule(
            [
                FaultEvent(1, FAIL, ch),
                FaultEvent(5, HEAL, ch),
                FaultEvent(9, FAIL, ch),
            ]
        )
        assert schedule.failed_at(0) == frozenset()
        assert schedule.failed_at(1) == frozenset([ch])
        assert schedule.failed_at(6) == frozenset()
        assert schedule.failed_at(20) == frozenset([ch])

    def test_channels_and_peak(self, mesh44):
        a = east_channel(mesh44, (0, 0))
        b = east_channel(mesh44, (1, 1))
        schedule = FaultSchedule(
            [FaultEvent(1, FAIL, a), FaultEvent(4, HEAL, a), FaultEvent(2, FAIL, b)]
        )
        assert schedule.channels() == frozenset([a, b])
        assert schedule.peak_failed() == frozenset([a, b])

    def test_validate_for(self, mesh44, cube4):
        schedule = FaultSchedule([FaultEvent(1, FAIL, east_channel(mesh44))])
        schedule.validate_for(mesh44)
        with pytest.raises(ValueError, match="not in"):
            schedule.validate_for(cube4)

    def test_json_round_trip(self, mesh44):
        schedule = FaultSchedule.random(mesh44, 4, seed=7, window=(10, 50))
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule

    def test_equality(self, mesh44):
        a = FaultSchedule.random(mesh44, 3, seed=5, window=(0, 10))
        b = FaultSchedule.from_dict(a.to_dict())
        assert a == b
        assert a != FaultSchedule(())


class TestRandomGeneration:
    def test_deterministic_per_seed(self, mesh44):
        a = FaultSchedule.random(mesh44, 5, seed=3, window=(0, 100))
        b = FaultSchedule.random(mesh44, 5, seed=3, window=(0, 100))
        assert a == b
        assert a != FaultSchedule.random(mesh44, 5, seed=4, window=(0, 100))

    def test_count_and_window_respected(self, mesh44):
        schedule = FaultSchedule.random(mesh44, 6, seed=1, window=(20, 40))
        fails = [event for event in schedule if event.kind == FAIL]
        assert len(fails) == 6
        assert all(20 <= event.cycle < 40 for event in fails)

    def test_zero_count_is_empty(self, mesh44):
        assert len(FaultSchedule.random(mesh44, 0, seed=1)) == 0

    def test_heal_after_adds_heals(self, mesh44):
        schedule = FaultSchedule.random(
            mesh44, 3, seed=2, window=(0, 10), heal_after=25
        )
        fails = [event for event in schedule if event.kind == FAIL]
        heals = [event for event in schedule if event.kind == HEAL]
        assert len(fails) == len(heals) == 3
        for fail in fails:
            assert any(
                heal.channel == fail.channel
                and heal.cycle == fail.cycle + 25
                for heal in heals
            )

    def test_require_connected_holds(self, mesh44):
        for seed in range(10):
            schedule = FaultSchedule.random(
                mesh44, 8, seed=seed, window=(0, 10), require_connected=True
            )
            degraded = FaultyTopology(mesh44, schedule.peak_failed())
            assert is_strongly_connected(degraded)

    def test_empty_window_rejected(self, mesh44):
        with pytest.raises(ValueError, match="window"):
            FaultSchedule.random(mesh44, 2, seed=1, window=(5, 5))

    def test_bad_heal_after_rejected(self, mesh44):
        with pytest.raises(ValueError, match="heal_after"):
            FaultSchedule.random(mesh44, 2, seed=1, heal_after=0)

    def test_matches_topology_fault_sampling(self, mesh44):
        # The schedule's fault set is drawn exactly as
        # random_channel_faults draws it for the same seed.
        from repro.topology import random_channel_faults

        schedule = FaultSchedule.random(
            mesh44, 5, seed=11, window=(0, 10), require_connected=False
        )
        faulty = random_channel_faults(mesh44, 5, seed=11)
        assert schedule.peak_failed() == faulty.failed
