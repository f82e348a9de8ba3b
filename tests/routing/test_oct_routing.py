"""Tests for octagonal-mesh routing."""

import pytest

from repro.api import SimulationConfig, run
from repro.core.numbering import numbering_violations, potential_numbering
from repro.routing import OctDimensionOrderRouting, OctNegativeFirstRouting
from repro.topology import OctMesh
from tests.core.cdg_oracle import is_deadlock_free


@pytest.fixture(scope="module")
def octm():
    return OctMesh(5, 5)


@pytest.fixture(scope="module")
def oct_nf(octm):
    return OctNegativeFirstRouting(octm)


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


class TestOctNegativeFirst:
    def test_requires_oct_mesh(self, mesh44):
        with pytest.raises(ValueError):
            OctNegativeFirstRouting(mesh44)

    @pytest.mark.parametrize("m,n", [(4, 4), (5, 5), (4, 6)])
    def test_deadlock_free(self, m, n):
        octm = OctMesh(m, n)
        assert is_deadlock_free(octm, OctNegativeFirstRouting(octm))

    def test_phi_numbering_certifies(self, octm, oct_nf):
        numbering = potential_numbering(octm, octm.potential)
        assert numbering_violations(octm, oct_nf, numbering, "increasing") == []

    def test_sum_potential_does_not_separate(self, octm):
        # The coordinate sum fails on the anti-diagonal; phi is needed.
        with pytest.raises(ValueError):
            potential_numbering(octm, sum)

    def test_minimal_on_every_pair(self, octm, oct_nf):
        for src in octm.nodes():
            for dst in octm.nodes():
                if src == dst:
                    continue
                for pick in (0, 1, 2):
                    assert walk(octm, oct_nf, src, dst, pick) == octm.distance(
                        src, dst
                    )

    def test_one_way_phase_transition(self, octm, oct_nf):
        # Once a walk takes a positive hop it never descends again.
        for src in [(0, 0), (4, 4), (0, 4), (2, 3)]:
            for dst in octm.nodes():
                if src == dst:
                    continue
                node, in_ch = src, None
                seen_positive = False
                while node != dst:
                    (channel, *_) = oct_nf.route(in_ch, node, dst)
                    if channel.direction.is_positive:
                        seen_positive = True
                    else:
                        assert not seen_positive, (src, dst)
                    node, in_ch = channel.dst, channel

    def test_adaptive_on_positive_quadrant(self, oct_nf):
        candidates = oct_nf.route(None, (0, 0), (3, 1))
        assert len(candidates) >= 2


class TestOctDimensionOrder:
    def test_deadlock_free(self, octm):
        assert is_deadlock_free(octm, OctDimensionOrderRouting(octm))

    def test_never_uses_diagonals(self, octm):
        ab = OctDimensionOrderRouting(octm)
        for src in list(octm.nodes())[::2]:
            for dst in list(octm.nodes())[::2]:
                if src == dst:
                    continue
                node, in_ch = src, None
                while node != dst:
                    (channel,) = ab.route(in_ch, node, dst)
                    assert channel.direction.dim in (0, 1)
                    node, in_ch = channel.dst, channel

    def test_diagonal_advantage(self, octm, oct_nf):
        ab = OctDimensionOrderRouting(octm)
        assert walk(octm, oct_nf, (0, 0), (4, 4)) == 4
        assert walk(octm, ab, (0, 0), (4, 4)) == 8

    def test_simulates(self, octm):
        config = SimulationConfig(
            warmup_cycles=300, measure_cycles=1500, drain_cycles=500
        )
        result = run(topology=octm, routing="oct-negative-first",
                     pattern="uniform", load=0.08, config=config).result
        assert not result.deadlocked
        assert result.total_delivered > 20
