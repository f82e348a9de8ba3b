"""Tests for name-based routing construction."""

import pytest

from repro.routing import available_algorithms, make_routing
from repro.topology import Hypercube, Mesh2D, Torus
from tests.core.cdg_oracle import is_deadlock_free


class TestMakeRouting:
    def test_unknown_name_rejected(self, mesh44):
        with pytest.raises(ValueError, match="unknown routing algorithm"):
            make_routing("zigzag", mesh44)

    def test_name_attribute_matches(self, mesh44):
        for name in ("xy", "west-first", "north-last", "negative-first"):
            assert make_routing(name, mesh44).name == name

    def test_nonminimal_flag(self, mesh44):
        assert make_routing("west-first", mesh44).minimal
        assert not make_routing("west-first-nonminimal", mesh44).minimal


class TestAvailableAlgorithms:
    def test_mesh_includes_2d_algorithms(self, mesh44):
        names = available_algorithms(mesh44)
        for expected in ("xy", "west-first", "north-last", "negative-first",
                         "abonf", "abopl"):
            assert expected in names

    def test_cube_includes_cube_algorithms(self, cube4):
        names = available_algorithms(cube4)
        assert "e-cube" in names and "p-cube" in names
        assert "xy" not in names

    def test_torus_algorithms(self, torus42):
        names = available_algorithms(torus42)
        assert "negative-first-torus" in names
        assert "xy+first-hop-wrap" in names

    def test_every_advertised_mesh_algorithm_constructs_and_is_safe(self, mesh44):
        for name in available_algorithms(mesh44):
            algorithm = make_routing(name, mesh44)
            assert is_deadlock_free(mesh44, algorithm), name

    def test_every_advertised_cube_algorithm_constructs_and_is_safe(self, cube4):
        for name in available_algorithms(cube4):
            algorithm = make_routing(name, cube4)
            assert is_deadlock_free(cube4, algorithm), name

    def test_every_advertised_torus_algorithm_constructs_and_is_safe(self, torus42):
        for name in available_algorithms(torus42):
            algorithm = make_routing(name, torus42)
            assert is_deadlock_free(torus42, algorithm), name
