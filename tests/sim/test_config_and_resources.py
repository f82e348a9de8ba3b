"""Tests for SimulationConfig and Packet bookkeeping."""

import pytest

from repro.sim import SimulationConfig
from repro.sim.packet import Packet


class TestConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.buffer_depth == 1               # single-flit buffers
        assert config.flits_per_usec == 20.0          # 20 flits/usec links
        assert config.output_policy.name == "xy"      # xy output selection
        assert config.input_policy.name == "fcfs"     # local FCFS

    def test_cycle_time(self):
        assert SimulationConfig().cycle_time_usec == pytest.approx(0.05)

    def test_total_cycles(self):
        config = SimulationConfig(
            warmup_cycles=10, measure_cycles=20, drain_cycles=5
        )
        assert config.total_cycles == 35

    def test_invalid_buffer_depth(self):
        with pytest.raises(ValueError):
            SimulationConfig(buffer_depth=0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(warmup_cycles=-1)


class TestPacket:
    def test_initial_state(self):
        packet = Packet(7, (0, 0), (2, 2), 10, 1.5)
        assert packet.remaining_to_inject == 10
        assert packet.flits_consumed == 0
        assert not packet.done
        assert packet.flits_in_network == 0

    def test_done_when_all_consumed(self):
        packet = Packet(0, (0, 0), (1, 1), 3, 0.0)
        packet.flits_consumed = 3
        assert packet.done

    def test_flits_in_network_sums_occupancy(self):
        packet = Packet(0, (0, 0), (1, 1), 5, 0.0)
        packet.occupancy = [1, 2, 1]
        assert packet.flits_in_network == 4

    def test_flits_in_network_counts_occupancy_bits(self):
        # Single-flit buffers on a single lane keep the same counts as
        # the bits of one int.
        packet = Packet(0, (0, 0), (1, 1), 5, 0.0)
        packet.occ_bits = 0b1011
        assert packet.flits_in_network == 3
