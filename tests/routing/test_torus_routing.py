"""Tests for the k-ary n-cube routing extensions (Section 4.2)."""

import pytest

from repro.routing import (
    FirstHopWraparoundRouting,
    NegativeFirstTorusRouting,
    make_routing,
)
from repro.topology import Torus
from tests.core.cdg_oracle import is_deadlock_free


def walk(algorithm, src, dest, pick=0, limit=64):
    node, in_ch, hops = src, None, []
    while node != dest:
        candidates = algorithm.route(in_ch, node, dest)
        assert candidates, (src, dest, node)
        channel = candidates[min(pick, len(candidates) - 1)]
        hops.append(channel)
        node, in_ch = channel.dst, channel
        assert len(hops) <= limit, "did not terminate"
    return hops


class TestFirstHopWraparound:
    @pytest.fixture
    def routing(self, torus42):
        return make_routing("xy+first-hop-wrap", torus42)

    def test_wrap_offered_only_at_injection(self, routing, torus42):
        first = routing.route(None, (3, 0), (0, 0))
        assert any(ch.wraparound for ch in first)
        wrap = next(ch for ch in first if ch.wraparound)
        later = routing.route(wrap, wrap.dst, (1, 0))
        assert not any(ch.wraparound for ch in later)

    def test_unhelpful_wrap_not_offered(self, routing):
        # (1, 0) -> (2, 0): the wraparound is not on any useful path.
        candidates = routing.route(None, (1, 0), (2, 0))
        assert not any(ch.wraparound for ch in candidates)

    def test_all_pairs_deliver(self, routing, torus42):
        for src in torus42.nodes():
            for dst in torus42.nodes():
                if src != dst:
                    walk(routing, src, dst)

    def test_wrap_shortens_path(self, routing, torus42):
        # (3, 0) -> (0, 0): taking the offered wraparound delivers in one
        # hop (versus three mesh hops for the base algorithm).
        candidates = routing.route(None, (3, 0), (0, 0))
        wrap = next(ch for ch in candidates if ch.wraparound)
        assert wrap.dst == (0, 0)
        mesh_hops = walk(routing.base, (3, 0), (0, 0))
        assert len(mesh_hops) == 3

    def test_deadlock_free(self, torus42, routing):
        assert is_deadlock_free(torus42, routing)

    def test_with_negative_first_base(self, torus42):
        routing = make_routing("negative-first+first-hop-wrap", torus42)
        assert isinstance(routing, FirstHopWraparoundRouting)
        assert is_deadlock_free(torus42, routing)
        for src in list(torus42.nodes())[::3]:
            for dst in list(torus42.nodes())[::3]:
                if src != dst:
                    walk(routing, src, dst, pick=1)


class TestNegativeFirstTorus:
    @pytest.fixture
    def routing(self, torus42):
        return NegativeFirstTorusRouting(torus42)

    def test_strictly_nonminimal(self, routing):
        assert not routing.minimal

    def test_negative_phase_before_positive(self, routing):
        hops = walk(routing, (2, 1), (1, 2))
        signs = [h.direction.sign for h in hops]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips <= 1
        if -1 in signs and 1 in signs:
            assert signs.index(1) > max(
                i for i, s in enumerate(signs) if s == -1
            )

    def test_west_wrap_used_when_shorter(self, torus42):
        routing = NegativeFirstTorusRouting(Torus(6, 1))
        # From coordinate 5 to 0 the wraparound jump (1 hop) beats five
        # west hops only when 1 + dest < cur - dest; to dest 0 it's 1 < 5.
        candidates = routing.route(None, (5,), (0,))
        assert any(ch.wraparound for ch in candidates)

    def test_west_wrap_not_used_when_longer(self):
        routing = NegativeFirstTorusRouting(Torus(6, 1))
        # 5 -> 4: mesh west costs 1; wrap then east costs 1 + 4.
        candidates = routing.route(None, (5,), (4,))
        assert not any(ch.wraparound for ch in candidates)

    def test_east_wrap_only_for_exact_edge_landing(self):
        routing = NegativeFirstTorusRouting(Torus(6, 1))
        candidates = routing.route(None, (0,), (5,))
        assert any(ch.wraparound for ch in candidates)
        candidates = routing.route(None, (0,), (4,))
        assert not any(ch.wraparound for ch in candidates)

    def test_all_pairs_deliver(self, routing, torus42):
        for src in torus42.nodes():
            for dst in torus42.nodes():
                if src == dst:
                    continue
                for pick in (0, 1):
                    walk(routing, src, dst, pick)

    @pytest.mark.parametrize("k,n", [(4, 2), (5, 2), (3, 3)])
    def test_deadlock_free(self, k, n):
        torus = Torus(k, n)
        assert is_deadlock_free(torus, NegativeFirstTorusRouting(torus))

    def test_positive_phase_locks_out_negative(self, routing, torus42):
        # After any positive hop the packet may only continue positive.
        east = torus42.channel_in_direction((1, 1), routing.topology
                                            .minimal_directions((1, 1), (2, 1))[0])
        candidates = routing.route(east, (2, 1), (3, 2))
        assert all(ch.direction.is_positive for ch in candidates)
