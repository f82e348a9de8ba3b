"""Tests for name-based routing construction."""

import pytest

from repro.routing import UnknownNameError, available_algorithms, make_routing
from repro.routing.registry import _FACTORIES
from repro.topology import Hypercube, Mesh2D, Torus, parse_topology, random_channel_faults
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


#: Topologies the applicability check is exercised on.
APPLICABILITY_TOPOLOGIES = ["mesh:4x4", "mesh:3x3x3", "cube:4", "torus:4x4", "hex:4x4"]


class TestApplicability:
    """``make_routing`` builds exactly what ``available_algorithms`` lists."""

    @pytest.mark.parametrize("spec", APPLICABILITY_TOPOLOGIES)
    def test_listed_pairs_build_and_unlisted_pairs_raise(self, spec):
        topology = parse_topology(spec)
        listed = set(available_algorithms(topology))
        assert listed
        for name in sorted(_FACTORIES):
            if name in listed:
                assert make_routing(name, topology) is not None
            else:
                with pytest.raises(ValueError, match="does not apply") as excinfo:
                    make_routing(name, topology)
                assert not isinstance(excinfo.value, UnknownNameError)
                # The message names what does apply.
                assert all(other in str(excinfo.value) for other in listed)

    @pytest.mark.parametrize(
        "name,spec",
        [
            ("west-first", "hex:4x4"),
            ("xy", "hex:4x4"),
            ("negative-first", "hex:4x4"),
            ("negative-first-torus", "mesh:4x4"),
            ("xy", "mesh:3x3x3"),
        ],
    )
    def test_pairs_outside_the_list_raise(self, name, spec):
        with pytest.raises(ValueError, match="does not apply"):
            make_routing(name, parse_topology(spec))

    def test_no_name_applies_to_a_faulty_topology(self):
        # A fault restricts the healthy table
        # (CompiledRoutes.reach_restricted); no routing is re-made on it.
        faulty = random_channel_faults(parse_topology("mesh:5x5"), 2, seed=5)
        assert available_algorithms(faulty) == []
        for name in ("west-first-nonminimal", "xy", "p-cube"):
            with pytest.raises(ValueError, match="does not apply"):
                make_routing(name, faulty)

    def test_synth_names_are_unaffected(self, mesh44):
        assert make_routing("synth2-nw.sw", mesh44).name == "synth2-nw.sw"


class TestNamesAreKept:
    """Each registry name keeps its ``routing.name`` and ``minimal``."""

    @pytest.mark.parametrize(
        "spec,name,label,minimal",
        [
            ("mesh:4x4", "xy", "xy", True),
            ("mesh:4x4", "yx", "yx", True),
            ("mesh:4x4", "dimension-order", "xy", True),
            ("mesh:3x3x3", "dimension-order", "xy", True),
            ("cube:4", "dimension-order", "e-cube", True),
            ("cube:4", "e-cube", "e-cube", True),
            ("mesh:4x4", "west-first", "west-first", True),
            ("mesh:4x4", "north-last", "north-last", True),
            ("mesh:4x4", "negative-first", "negative-first", True),
            ("mesh:3x3x3", "abonf", "abonf", True),
            ("mesh:3x3x3", "abopl", "abopl", True),
            ("cube:4", "p-cube", "p-cube", True),
            ("cube:4", "p-cube-nonminimal", "p-cube-nonminimal", False),
            ("mesh:4x4", "west-first-nonminimal", "west-first-nonminimal", False),
            ("mesh:4x4", "north-last-nonminimal", "north-last-nonminimal", False),
            ("mesh:3x3x3", "negative-first-nonminimal", "negative-first-nonminimal", False),
            ("mesh:3x3x3", "abonf-nonminimal", "abonf-nonminimal", False),
            ("mesh:3x3x3", "abopl-nonminimal", "abopl-nonminimal", False),
            ("torus:4x4", "xy+first-hop-wrap", "xy+first-hop-wrap", False),
            (
                "torus:4x4", "negative-first+first-hop-wrap",
                "negative-first+first-hop-wrap", False,
            ),
        ],
    )
    def test_name_and_minimal(self, spec, name, label, minimal):
        routing = make_routing(name, parse_topology(spec))
        assert (routing.name, routing.minimal) == (label, minimal)
