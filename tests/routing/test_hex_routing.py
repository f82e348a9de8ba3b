"""Tests for hexagonal-mesh routing (Section 7 future work realized)."""

import pytest

from repro.api import SimulationConfig, run
from repro.core.numbering import negative_first_numbering, numbering_violations
from repro.routing import HexDimensionOrderRouting, HexNegativeFirstRouting
from repro.topology import HexMesh, Mesh2D
from tests.core.cdg_oracle import is_deadlock_free


@pytest.fixture(scope="module")
def hexm():
    return HexMesh(5, 5)


@pytest.fixture(scope="module")
def hex_nf(hexm):
    return HexNegativeFirstRouting(hexm)


@pytest.fixture(scope="module")
def hex_ab(hexm):
    return HexDimensionOrderRouting(hexm)


def uniform_point(topology, routing, config):
    return run(topology=topology, routing=routing, pattern="uniform",
               load=0.08, config=config).result


def walk(topology, algorithm, src, dst, pick=0):
    node, in_ch, hops = src, None, 0
    while node != dst:
        candidates = algorithm.route(in_ch, node, dst)
        assert candidates, (src, dst, node)
        channel = candidates[pick % len(candidates)]
        node, in_ch = channel.dst, channel
        hops += 1
        assert hops < 100
    return hops


class TestHexNegativeFirst:
    def test_requires_hex_mesh(self, mesh44):
        with pytest.raises(ValueError):
            HexNegativeFirstRouting(mesh44)

    def test_deadlock_free(self, hexm, hex_nf):
        assert is_deadlock_free(hexm, hex_nf)

    def test_theorem5_numbering_certifies(self, hexm, hex_nf):
        # The negative-first proof survives 60-degree turns verbatim.
        numbering = negative_first_numbering(hexm)
        assert numbering_violations(hexm, hex_nf, numbering, "increasing") == []

    def test_minimal_on_every_pair(self, hexm, hex_nf):
        for src in hexm.nodes():
            for dst in hexm.nodes():
                if src == dst:
                    continue
                for pick in (0, 1):
                    assert walk(hexm, hex_nf, src, dst, pick) == hexm.distance(
                        src, dst
                    )

    def test_negative_phase_first(self, hex_nf, hexm):
        # Mixed displacement: the -b hops come before the +a hops.
        candidates = hex_nf.route(None, (0, 4), (3, 1))
        assert all(ch.direction.is_negative for ch in candidates)

    def test_adaptive_on_same_sign_displacement(self, hex_nf):
        candidates = hex_nf.route(None, (0, 0), (3, 1))
        assert len(candidates) == 2


class TestHexDimensionOrder:
    def test_deadlock_free(self, hexm, hex_ab):
        assert is_deadlock_free(hexm, hex_ab)

    def test_never_uses_diagonal(self, hexm, hex_ab):
        for src in hexm.nodes():
            for dst in hexm.nodes():
                if src == dst:
                    continue
                node, in_ch = src, None
                while node != dst:
                    (channel,) = hex_ab.route(in_ch, node, dst)
                    assert channel.direction.dim in (0, 1)
                    node, in_ch = channel.dst, channel

    def test_longer_than_hex_minimal_on_diagonals(self, hexm, hex_nf, hex_ab):
        src, dst = (0, 0), (4, 4)
        assert walk(hexm, hex_ab, src, dst) == 8
        assert walk(hexm, hex_nf, src, dst) == 4

    def test_single_candidate(self, hexm, hex_ab):
        for src in list(hexm.nodes())[::3]:
            for dst in list(hexm.nodes())[::3]:
                if src != dst:
                    assert len(hex_ab.route(None, src, dst)) == 1


class TestHexSimulation:
    def test_uniform_traffic_simulates(self, hexm):
        config = SimulationConfig(
            warmup_cycles=300, measure_cycles=1500, drain_cycles=500
        )
        result = uniform_point(hexm, "hex-negative-first", config)
        assert not result.deadlocked
        assert result.total_delivered > 20

    def test_nf_shorter_paths_than_ab(self, hexm):
        config = SimulationConfig(
            warmup_cycles=300, measure_cycles=2000, drain_cycles=700
        )
        nf = uniform_point(hexm, "hex-negative-first", config)
        ab = uniform_point(hexm, "hex-ab-order", config)
        assert nf.avg_hops < ab.avg_hops
