"""Tests for the degree-of-adaptiveness math (Sections 3.4, 4.1, 5)."""

import math

import pytest

from repro.core.adaptiveness import (
    average_adaptiveness_ratio,
    multinomial,
    pcube_adaptiveness_ratio,
    s_abonf,
    s_abopl,
    s_ecube,
    s_fully_adaptive,
    s_negative_first,
    s_north_last,
    s_pcube,
    s_west_first,
)
from repro.routing import make_routing
from repro.sim.ids import CompiledRoutes, shortest_path_counts
from repro.topology import Hypercube, Mesh, Mesh2D

from tests.core.test_path_counts import id_counts


class TestMultinomial:
    def test_binomial_case(self):
        assert multinomial([3, 2]) == math.comb(5, 3)

    def test_empty(self):
        assert multinomial([]) == 1

    def test_single(self):
        assert multinomial([7]) == 1

    def test_three_way(self):
        assert multinomial([1, 1, 1]) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial([2, -1])


class TestClosedForms2D:
    def test_s_f_formula(self):
        # (dx + dy)! / (dx! dy!)
        assert s_fully_adaptive((0, 0), (3, 2)) == 10
        assert s_fully_adaptive((2, 2), (2, 2)) == 1

    def test_west_first_adaptive_region(self):
        # Fully adaptive when d_x >= s_x.
        assert s_west_first((1, 1), (3, 3)) == s_fully_adaptive((1, 1), (3, 3))
        assert s_west_first((1, 3), (3, 0)) == s_fully_adaptive((1, 3), (3, 0))

    def test_west_first_single_path_region(self):
        assert s_west_first((3, 1), (0, 3)) == 1
        assert s_west_first((3, 3), (1, 0)) == 1

    def test_north_last_regions(self):
        assert s_north_last((1, 3), (3, 1)) == s_fully_adaptive((1, 3), (3, 1))
        assert s_north_last((1, 1), (3, 3)) == 1

    def test_negative_first_regions(self):
        # Fully adaptive for all-negative and all-positive displacements.
        assert s_negative_first((3, 3), (1, 0)) == s_fully_adaptive((3, 3), (1, 0))
        assert s_negative_first((0, 0), (2, 2)) == s_fully_adaptive((0, 0), (2, 2))
        # Single path for mixed displacements.
        assert s_negative_first((0, 3), (3, 0)) == 1
        assert s_negative_first((3, 0), (0, 3)) == 1

    def test_ecube_always_one(self):
        assert s_ecube((0, 0), (3, 2)) == 1


class TestClosedFormsMatchEnumeration2D:
    @pytest.fixture(scope="class")
    def mesh(self):
        return Mesh2D(5, 4)

    @pytest.mark.parametrize(
        "name,closed",
        [
            ("west-first", s_west_first),
            ("north-last", s_north_last),
            ("negative-first", s_negative_first),
            ("xy", lambda s, d: 1),
        ],
    )
    def test_every_pair(self, mesh, name, closed):
        counts = id_counts(make_routing(name, mesh))
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src == dst:
                    continue
                assert counts[dst][src] == closed(src, dst), (name, src, dst)


class TestClosedFormsMatchEnumerationNDim:
    @pytest.fixture(scope="class")
    def mesh(self):
        return Mesh((3, 3, 3))

    @pytest.mark.parametrize(
        "name,closed",
        [
            ("negative-first", s_negative_first),
            ("abonf", s_abonf),
            ("abopl", s_abopl),
        ],
    )
    def test_every_pair_3d(self, mesh, name, closed):
        counts = id_counts(make_routing(name, mesh))
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src == dst:
                    continue
                assert counts[dst][src] == closed(src, dst), (name, src, dst)


class TestPCube:
    def test_h1_h0_factorials(self):
        # Section 5: S_p-cube = h1! h0!.
        src = (1, 0, 1, 1, 0)
        dst = (0, 0, 0, 1, 1)
        # h1 = |{0, 2}| = 2 (1 -> 0), h0 = |{4}| = 1 (0 -> 1).
        assert s_pcube(src, dst) == 2

    def test_matches_enumeration(self):
        cube = Hypercube(5)
        counts = id_counts(make_routing("p-cube", cube))
        for src in cube.nodes():
            for dst in cube.nodes():
                if src == dst:
                    continue
                assert counts[dst][src] == s_pcube(src, dst)

    def test_ratio_formula(self):
        # S_p-cube / S_f = 1 / C(h, h1).
        src = (1, 1, 0, 0)
        dst = (0, 0, 1, 1)
        assert pcube_adaptiveness_ratio(src, dst) == 1 / math.comb(4, 2)

    def test_ratio_is_one_at_zero_distance(self):
        assert pcube_adaptiveness_ratio((1, 0), (1, 0)) == 1.0

    def test_paper_example_counts(self):
        # The Section 5 example: h = 6, h0 = 3, h1 = 3, 36 shortest paths.
        src = tuple(reversed([1, 0, 1, 1, 0, 1, 0, 1, 0, 0]))
        dst = tuple(reversed([0, 0, 1, 0, 1, 1, 1, 0, 0, 1]))
        assert s_pcube(src, dst) == 36
        assert s_fully_adaptive(src, dst) == math.factorial(6)
        compiled = CompiledRoutes(make_routing("p-cube", Hypercube(10)))
        node_id = compiled.index.node_id
        assert shortest_path_counts(compiled, node_id[dst])[node_id[src]] == 36


class TestAverages:
    """Section 3.4: averaged over all pairs, S_p/S_f > 1/2."""

    @pytest.mark.parametrize("name", ["west-first", "north-last", "negative-first"])
    def test_partially_adaptive_average_exceeds_half(self, name):
        mesh = Mesh2D(5, 5)
        ratio = average_adaptiveness_ratio(id_counts(make_routing(name, mesh)))
        assert ratio > 0.5

    def test_xy_average_below_adaptive(self):
        mesh = Mesh2D(4, 4)
        xy = average_adaptiveness_ratio(id_counts(make_routing("xy", mesh)))
        wf = average_adaptiveness_ratio(id_counts(make_routing("west-first", mesh)))
        assert xy < wf

    def test_sp_equals_one_for_at_least_half_the_pairs(self):
        # Section 3.4: S_p = 1 for at least half of the pairs.
        mesh = Mesh2D(5, 5)
        nodes = list(mesh.nodes())
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        for name in ("west-first", "north-last", "negative-first"):
            counts = id_counts(make_routing(name, mesh))
            singles = sum(1 for s, d in pairs if counts[d][s] == 1)
            assert singles >= len(pairs) / 2, name

    def test_3d_average_exceeds_quarter(self):
        # Section 4.1: S_p/S_f > 1 / 2**(n-1).
        mesh = Mesh((3, 3, 3))
        ratio = average_adaptiveness_ratio(
            id_counts(make_routing("negative-first", mesh))
        )
        assert ratio > 1 / 4
