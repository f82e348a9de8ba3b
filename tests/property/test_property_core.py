"""Property-based tests (hypothesis) for the turn-model core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptiveness import (
    multinomial,
    s_fully_adaptive,
    s_negative_first,
    s_pcube,
    s_west_first,
)
from repro.core.channel_graph import restriction_is_deadlock_free
from repro.core.model import apply_symmetry, signed_permutation_symmetries
from repro.core.restrictions import TurnRestriction, negative_first_restriction
from repro.core.turns import abstract_cycles, ninety_degree_turns
from repro.routing import make_routing
from repro.sim.ids import CompiledRoutes, shortest_path_counts
from repro.synth import enumerate_candidates
from repro.topology import Mesh, Mesh2D

coords_2d = st.tuples(st.integers(0, 4), st.integers(0, 4))
MESH55 = Mesh2D(5, 5)
WEST_FIRST55 = CompiledRoutes(make_routing("west-first", MESH55))
MESH33 = Mesh2D(3, 3)
SAFE_SETS_2D = [
    prohibited
    for prohibited in enumerate_candidates(2)[0]
    if restriction_is_deadlock_free(MESH33, TurnRestriction(2, prohibited))
]


class TestClosedFormProperties:
    @given(src=coords_2d, dst=coords_2d)
    @settings(max_examples=60, deadline=None)
    def test_partial_never_exceeds_full(self, src, dst):
        full = s_fully_adaptive(src, dst)
        assert 1 <= s_west_first(src, dst) <= full or src == dst
        assert s_negative_first(src, dst) <= full

    @given(src=coords_2d, dst=coords_2d)
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_closed_form(self, src, dst):
        if src == dst:
            return
        node_id = WEST_FIRST55.index.node_id
        counts = shortest_path_counts(WEST_FIRST55, node_id[dst])
        assert counts[node_id[src]] == s_west_first(src, dst)

    @given(
        counts=st.lists(st.integers(0, 6), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_multinomial_at_least_one(self, counts):
        assert multinomial(counts) >= 1

    @given(
        src=st.tuples(*[st.integers(0, 1)] * 6),
        dst=st.tuples(*[st.integers(0, 1)] * 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_pcube_divides_full(self, src, dst):
        # h1! h0! always divides h! = (h1 + h0)!.
        assert s_fully_adaptive(src, dst) % s_pcube(src, dst) == 0


class TestRestrictionProperties:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_turn_per_cycle_symmetry_invariance(self, data):
        # Deadlock freedom of a prohibition set is invariant under the
        # mesh symmetries.
        prohibited = data.draw(st.sampled_from(SAFE_SETS_2D))
        symmetry = data.draw(st.sampled_from(signed_permutation_symmetries(2)))
        image = apply_symmetry(symmetry, prohibited)
        assert restriction_is_deadlock_free(MESH33, TurnRestriction(2, image))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_supersets_of_safe_sets_stay_safe(self, data):
        # Prohibiting MORE turns can never reintroduce deadlock.
        prohibited = set(data.draw(st.sampled_from(SAFE_SETS_2D)))
        extra = data.draw(
            st.sets(st.sampled_from(ninety_degree_turns(2)), max_size=3)
        )
        restriction = TurnRestriction(2, frozenset(prohibited | extra))
        mesh = Mesh2D(3, 3)
        assert restriction_is_deadlock_free(mesh, restriction)

    @given(n=st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_negative_first_safe_any_dimension(self, n):
        mesh = Mesh((3,) * n)
        assert restriction_is_deadlock_free(mesh, negative_first_restriction(n))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_removing_all_prohibitions_from_one_cycle_is_unsafe(self, data):
        # A set prohibiting nothing in some abstract cycle cannot be
        # deadlock free (necessity half of Theorem 6).
        cycle_a, cycle_b = abstract_cycles(2)
        turn = data.draw(st.sampled_from(list(cycle_a)))
        restriction = TurnRestriction(2, frozenset([turn]))
        # Only one cycle broken: the other remains.
        assert not restriction_is_deadlock_free(Mesh2D(3, 3), restriction)
