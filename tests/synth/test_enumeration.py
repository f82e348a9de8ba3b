"""Enumeration: the Step 4 candidate space, deterministic and gated."""

import pytest

from repro.core.turns import abstract_cycles
from repro.synth import (
    candidate_space_size,
    enumerate_candidates,
    synthesis_dims,
)
from repro.topology import Hypercube, Mesh, Mesh2D, Torus


class TestSpaceSize:
    @pytest.mark.parametrize("n_dims, expected", [(2, 16), (3, 4096)])
    def test_closed_form(self, n_dims, expected):
        assert candidate_space_size(n_dims) == expected


class TestEnumerate:
    def test_2d_space_is_one_turn_from_each_cycle(self):
        candidates, truncated = enumerate_candidates(2)
        assert not truncated
        assert len(candidates) == 16
        assert len(set(candidates)) == 16
        cycles = abstract_cycles(2)
        for candidate in candidates:
            assert all(len(candidate & set(cycle)) == 1 for cycle in cycles)

    def test_one_turn_per_cycle(self):
        candidates, _ = enumerate_candidates(2)
        assert all(len(candidate) == 2 for candidate in candidates)

    def test_cap_is_a_prefix(self):
        full, _ = enumerate_candidates(2)
        capped, truncated = enumerate_candidates(2, max_candidates=5)
        assert truncated
        assert capped == full[:5]

    def test_cap_at_or_above_space_not_truncated(self):
        candidates, truncated = enumerate_candidates(2, max_candidates=16)
        assert len(candidates) == 16
        assert not truncated
        candidates, truncated = enumerate_candidates(2, max_candidates=100)
        assert len(candidates) == 16
        assert not truncated


class TestDimsGate:
    def test_meshes_and_hypercubes(self):
        assert synthesis_dims(Mesh2D(4, 4)) == 2
        assert synthesis_dims(Mesh((3, 3, 3))) == 3
        assert synthesis_dims(Hypercube(4)) == 4

    def test_one_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least two dimensions"):
            synthesis_dims(Mesh((4,)))

    def test_torus_rejected(self):
        with pytest.raises(ValueError, match="meshes and hypercubes"):
            synthesis_dims(Torus(4, 4))
