"""Tests for channel-fault injection."""

import pytest

from repro.core.directions import EAST, WEST
from repro.routing import TurnRestrictionRouting, make_routing
from repro.core.restrictions import west_first_restriction
from repro.sim.ids import CompiledRoutes
from repro.topology import FaultyTopology, Mesh2D, random_channel_faults
from repro.topology.faults import is_strongly_connected
from repro.topology.spec import parse_topology
from tests.core.cdg_oracle import is_deadlock_free


class TestFaultyTopology:
    def test_failed_channel_removed(self, mesh44):
        east = mesh44.channel_in_direction((1, 1), EAST)
        faulty = FaultyTopology(mesh44, [east])
        assert east not in faulty.out_channels((1, 1))
        assert east not in faulty.channels()
        assert faulty.num_channels == mesh44.num_channels - 1

    def test_out_channels_come_from_one_table_built_once(self, mesh44):
        failed = [mesh44.channel_in_direction((1, 1), EAST)]
        faulty = FaultyTopology(mesh44, failed)
        for node in mesh44.nodes():
            outs = faulty.out_channels(node)
            assert outs is faulty.out_channels(node)
            assert list(outs) == [
                ch for ch in mesh44.out_channels(node) if ch not in failed
            ]

    def test_out_channels_of_an_unknown_node_still_raise(self, mesh44):
        faulty = FaultyTopology(mesh44, [])
        for _ in range(2):
            with pytest.raises(ValueError, match="is not in a"):
                faulty.out_channels((9, 9))

    def test_reverse_direction_unaffected(self, mesh44):
        east = mesh44.channel_in_direction((1, 1), EAST)
        faulty = FaultyTopology(mesh44, [east])
        west_back = faulty.channel_in_direction((2, 1), WEST)
        assert west_back is not None
        assert west_back.dst == (1, 1)

    def test_unknown_channel_rejected(self, mesh44, cube4):
        foreign = cube4.channels()[0]
        with pytest.raises(ValueError):
            FaultyTopology(mesh44, [foreign])

    def test_shape_and_nodes_preserved(self, mesh44):
        east = mesh44.channel_in_direction((0, 0), EAST)
        faulty = FaultyTopology(mesh44, [east])
        assert faulty.shape == mesh44.shape
        assert list(faulty.nodes()) == list(mesh44.nodes())
        assert faulty.distance((0, 0), (3, 3)) == 6

    @pytest.mark.parametrize("spec", ["hex:5x5", "oct:5x5", "torus:4x2", "mesh:4x4"])
    def test_minimal_directions_are_the_healthy_topology_s(self, spec):
        # Hex and oct meshes override the per-axis coordinate compare;
        # the wrapper must report their answer, with or without faults.
        base = parse_topology(spec)
        for failed in ([], base.channels()[:3]):
            faulty = FaultyTopology(base, failed)
            for src in base.nodes():
                for dst in base.nodes():
                    assert faulty.minimal_directions(src, dst) == (
                        base.minimal_directions(src, dst)
                    ), (src, dst)

    def test_random_faults_reproducible(self, mesh44):
        a = random_channel_faults(mesh44, 5, seed=2)
        b = random_channel_faults(mesh44, 5, seed=2)
        assert a.failed == b.failed
        assert len(a.failed) == 5

    def test_too_many_faults_rejected(self, mesh44):
        with pytest.raises(ValueError):
            random_channel_faults(mesh44, mesh44.num_channels + 1)

    def test_duplicate_fault_collapses(self, mesh44):
        # Failing the same channel twice is one fault, not an error.
        east = mesh44.channel_in_direction((1, 1), EAST)
        faulty = FaultyTopology(mesh44, [east, east])
        assert faulty.failed == frozenset([east])
        assert faulty.num_channels == mesh44.num_channels - 1

    def test_node_with_all_out_channels_failed(self, mesh44):
        # A node whose every out-channel is dead can still receive but
        # never send: it becomes a sink, and the network is no longer
        # strongly connected.
        dead = mesh44.out_channels((1, 1))
        faulty = FaultyTopology(mesh44, dead)
        assert faulty.out_channels((1, 1)) == ()
        assert any(ch.dst == (1, 1) for ch in faulty.channels())
        assert not is_strongly_connected(faulty)


class TestConnectivity:
    def test_healthy_mesh_strongly_connected(self, mesh44):
        assert is_strongly_connected(mesh44)

    def test_unconstrained_sampling_may_disconnect(self, mesh44):
        # With require_connected off (the default), isolating a node is a
        # legitimate outcome — found by scanning seeds for a draw that
        # kills all of a node's out-channels.
        faulty = None
        for seed in range(200):
            candidate = random_channel_faults(mesh44, 8, seed=seed)
            if not is_strongly_connected(candidate):
                faulty = candidate
                break
        assert faulty is not None, "no disconnecting sample in 200 seeds"

    def test_require_connected_keeps_connectivity(self, mesh44):
        for seed in range(20):
            faulty = random_channel_faults(
                mesh44, 8, seed=seed, require_connected=True
            )
            assert len(faulty.failed) == 8
            assert is_strongly_connected(faulty)

    def test_require_connected_matches_unconstrained_when_first_draw_ok(
        self, mesh44
    ):
        # The first draw is exactly rng.sample, so when it already leaves
        # the mesh connected the two modes agree — historical fault sets
        # for a seed are unchanged by the new option.
        for seed in range(20):
            plain = random_channel_faults(mesh44, 3, seed=seed)
            if not is_strongly_connected(plain):
                continue
            constrained = random_channel_faults(
                mesh44, 3, seed=seed, require_connected=True
            )
            assert constrained.failed == plain.failed

    def test_require_connected_impossible_raises(self, mesh44):
        # Failing all but one channel always disconnects a 4x4 mesh.
        count = mesh44.num_channels - 1
        with pytest.raises(ValueError, match="strongly"):
            random_channel_faults(
                mesh44, count, seed=0, require_connected=True, max_attempts=5
            )


class TestRoutingUnderFaults:
    def test_minimal_routing_loses_pairs(self, mesh44):
        # Fail the only east channel on a shortest path corridor; minimal
        # west-first from (0, 0) to (1, 0) has no alternative.
        # The healthy table restricted by the reach rule says so.
        east = mesh44.channel_in_direction((0, 0), EAST)
        healthy = CompiledRoutes(make_routing("west-first", mesh44))
        index = healthy.index
        minimal = CompiledRoutes.reach_restricted(healthy, [index.cid[east]])
        source, dest = index.node_id[(0, 0)], index.node_id[(1, 0)]
        assert minimal.lookup(index.inj_base + source, dest) == ()

    def test_nonminimal_routes_around_fault(self, mesh44):
        east = mesh44.channel_in_direction((0, 0), EAST)
        faulty = FaultyTopology(mesh44, [east])
        nonminimal = TurnRestrictionRouting(
            faulty, west_first_restriction(), minimal=False
        )
        candidates = nonminimal.route(None, (0, 0), (1, 0))
        assert candidates
        # Walk to delivery.
        node, in_ch, hops = (0, 0), None, 0
        while node != (1, 0):
            chs = nonminimal.route(in_ch, node, (1, 0))
            assert chs
            node, in_ch = chs[0].dst, chs[0]
            hops += 1
            assert hops < 20
        assert hops > 1  # necessarily a detour

    def test_faulty_network_still_deadlock_free(self, mesh44):
        faulty = random_channel_faults(mesh44, 6, seed=4)
        routing = TurnRestrictionRouting(
            faulty, west_first_restriction(), minimal=False
        )
        # Removing channels can never reintroduce dependency cycles.
        assert is_deadlock_free(faulty, routing)
