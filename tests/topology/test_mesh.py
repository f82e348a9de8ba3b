"""Tests for n-dimensional meshes."""

import pytest

from repro.core.directions import EAST, NORTH, SOUTH, WEST, Direction
from repro.topology import Mesh, Mesh2D, parse_topology, random_channel_faults


class TestConstruction:
    def test_shape_and_node_count(self):
        mesh = Mesh((3, 4, 5))
        assert mesh.shape == (3, 4, 5)
        assert mesh.num_nodes == 60
        assert mesh.n_dims == 3

    def test_mesh2d_m_n(self):
        mesh = Mesh2D(5, 4)
        assert mesh.m == 5 and mesh.n == 4
        assert mesh.shape == (5, 4)

    def test_radix_below_two_rejected(self):
        with pytest.raises(ValueError):
            Mesh((3, 1))

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            Mesh(())


class TestNodes:
    def test_node_enumeration(self, mesh44):
        nodes = list(mesh44.nodes())
        assert len(nodes) == 16
        assert nodes[0] == (0, 0)
        assert nodes[-1] == (3, 3)
        assert len(set(nodes)) == 16

    def test_contains(self, mesh44):
        assert mesh44.contains((0, 3))
        assert not mesh44.contains((4, 0))
        assert not mesh44.contains((0, 0, 0))
        assert not mesh44.contains((-1, 0))

    def test_validate_node_raises(self, mesh44):
        with pytest.raises(ValueError):
            mesh44.validate_node((9, 9))

    def test_out_channels_rejects_an_invalid_node_every_time(self):
        # Validation sits on the memo's miss path; a raise is not a
        # result, so the second call must fail exactly like the first.
        mesh = Mesh2D(4, 4)
        for _ in range(3):
            for bad in [(9, 9), (-1, 0), (0, 0, 0), (4, 0)]:
                with pytest.raises(ValueError, match="is not in a"):
                    mesh.out_channels(bad)

    def test_out_channels_never_caches_an_invalid_node(self):
        mesh = Mesh2D(4, 4)
        cache = Mesh2D._out_channels_cached
        before = cache.cache_info().currsize
        with pytest.raises(ValueError):
            mesh.out_channels((9, 9))
        assert cache.cache_info().currsize == before
        first = mesh.out_channels((1, 1))
        assert cache.cache_info().currsize == before + 1
        hits = cache.cache_info().hits
        # The hit path returns the memoized tuple without re-validating.
        assert mesh.out_channels((1, 1)) is first
        assert cache.cache_info().hits == hits + 1
        with pytest.raises(ValueError):
            mesh.out_channels((9, 9))
        assert cache.cache_info().currsize == before + 1

    def test_distance_still_validates_both_ends(self, mesh44):
        with pytest.raises(ValueError):
            mesh44.distance((0, 0), (9, 9))
        with pytest.raises(ValueError):
            mesh44.distance((9, 9), (0, 0))

    @pytest.mark.parametrize("spec", [
        "mesh:5x4", "mesh:3x3x3", "torus:4x3", "cube:4", "hex:4x4", "oct:4x4",
    ])
    def test_distances_to_is_distance_from_every_node(self, spec):
        topology = parse_topology(spec)
        faulty = random_channel_faults(topology, 2, seed=1)
        for network in (topology, faulty):
            for dst in network.nodes():
                assert network.distances_to(dst) == [
                    network.distance(node, dst) for node in network.nodes()
                ]
            with pytest.raises(ValueError):
                network.distances_to((9,) * network.n_dims)


class TestChannels:
    def test_channel_count_formula(self):
        # A k x k mesh has 2 * 2 * k * (k-1) unidirectional channels.
        for k in (2, 3, 4, 8):
            mesh = Mesh2D(k, k)
            assert mesh.num_channels == 4 * k * (k - 1)

    def test_interior_node_degree(self, mesh44):
        assert len(mesh44.out_channels((1, 1))) == 4

    def test_corner_node_degree(self, mesh44):
        assert len(mesh44.out_channels((0, 0))) == 2
        assert len(mesh44.out_channels((3, 3))) == 2

    def test_edge_node_degree(self, mesh44):
        assert len(mesh44.out_channels((0, 1))) == 3

    def test_channels_paired(self, mesh54):
        # Every channel has a reverse partner (pairs of unidirectional
        # channels between neighbors, Section 6).
        channels = set(mesh54.channels())
        for ch in channels:
            assert any(
                other.src == ch.dst and other.dst == ch.src for other in channels
            )

    def test_channel_directions_consistent(self, mesh54):
        for ch in mesh54.channels():
            delta = [d - s for s, d in zip(ch.src, ch.dst)]
            assert delta[ch.direction.dim] == ch.direction.sign
            assert sum(abs(x) for x in delta) == 1
            assert not ch.wraparound

    def test_neighbor_lookup(self, mesh44):
        assert mesh44.neighbor((1, 1), EAST) == (2, 1)
        assert mesh44.neighbor((1, 1), WEST) == (0, 1)
        assert mesh44.neighbor((1, 1), NORTH) == (1, 2)
        assert mesh44.neighbor((1, 1), SOUTH) == (1, 0)

    def test_neighbor_none_at_boundary(self, mesh44):
        assert mesh44.neighbor((0, 0), WEST) is None
        assert mesh44.neighbor((3, 3), NORTH) is None

    def test_in_channels(self, mesh44):
        incoming = mesh44.in_channels((1, 1))
        assert len(incoming) == 4
        assert all(ch.dst == (1, 1) for ch in incoming)


class TestDistance:
    def test_manhattan(self, mesh44):
        assert mesh44.distance((0, 0), (3, 3)) == 6
        assert mesh44.distance((2, 1), (2, 1)) == 0
        assert mesh44.distance((3, 0), (0, 2)) == 5

    def test_symmetric(self, mesh54):
        for a in mesh54.nodes():
            for b in mesh54.nodes():
                assert mesh54.distance(a, b) == mesh54.distance(b, a)

    def test_3d(self, mesh3d):
        assert mesh3d.distance((0, 0, 0), (2, 2, 2)) == 6


class TestMinimalDirections:
    def test_productive_directions(self, mesh44):
        dirs = mesh44.minimal_directions((0, 0), (2, 3))
        assert set(dirs) == {EAST, NORTH}

    def test_empty_at_destination(self, mesh44):
        assert mesh44.minimal_directions((1, 1), (1, 1)) == ()

    def test_single_dimension(self, mesh44):
        assert mesh44.minimal_directions((3, 1), (0, 1)) == (WEST,)

    def test_ascending_dimension_order(self, mesh3d):
        dirs = mesh3d.minimal_directions((0, 2, 0), (2, 0, 1))
        assert [d.dim for d in dirs] == [0, 1, 2]
        assert dirs[0] == Direction(0, 1)
        assert dirs[1] == Direction(1, -1)
