"""The synthesis census one dimension up: the full 3D mesh space.

Step 4 on a 3x3x3 mesh enumerates 4096 prohibition sets.  176 prevent
deadlock and 3920 do not; they fall into 120 classes under the
48-element symmetry group of the cube, 9 of them certified.  Three of
the nine are the paper's Section 4.1 algorithms; the other six are
unnamed classes of orbit 24.
"""

from collections import Counter

import pytest

from repro.core.channel_graph import restriction_is_deadlock_free
from repro.core.restrictions import TurnRestriction
from repro.routing.synth_names import synth_name
from repro.synth import SynthSpec, enumerate_candidates, run_synthesis
from repro.topology import Mesh
from tests.core.cdg_oracle import turn_cdg_is_acyclic


@pytest.fixture(scope="module")
def census():
    return run_synthesis(SynthSpec(topology="mesh:3x3x3"))


def test_4096_candidates_176_free_3920_deadlocked(census):
    assert census.candidate_space == 4096
    assert census.enumerated == 4096
    assert not census.truncated
    assert census.deadlock_free == 176
    assert census.deadlocked == 3920


def test_120_classes_9_certified(census):
    assert len(census.outcomes) == 120
    assert sum(o.certified for o in census.outcomes) == 9
    assert len(census.ranked) == 9


def test_certified_orbit_sizes(census):
    orbits = Counter(o.orbit_size for o in census.outcomes if o.certified)
    assert orbits == {8: 1, 12: 2, 24: 6}


def test_rediscovers_exactly_the_three_paper_algorithms(census):
    found = {o.rediscovers for o in census.outcomes if o.rediscovers}
    assert found == {"negative-first", "abonf", "abopl"}
    assert census.missing_rediscovery is None


def test_ranked_order_of_the_nine(census):
    """Best first.  The six unnamed classes tie at 0.698 and the three
    paper algorithms at 0.681 up to the last bits of a float mean summed
    source-major; the order within each tie is those last bits."""
    assert census.ranked == (
        "synth3-n0n1.n0n2.n0p1.n1n2.p0n2.p1n2",
        "synth3-n0n1.n0n2.n1n2.p0n1.p0n2.p1n2",
        "synth3-n0n1.n0n2.n0p1.n0p2.n1n2.n1p2",
        "synth3-n0n1.n0n2.n1n2.p0n2.p1n2.p1p0",
        "synth3-n0n1.n0n2.n0p1.n0p2.n1n2.p1n2",
        "synth3-n0n1.n0n2.n0p1.n0p2.n1n2.p2p1",
        "synth3-n0n1.n0n2.p1n2.p1p0.p2n1.p2p0",
        "synth3-n0n1.n0n2.n0p1.p2n1.p2p0.p2p1",
        "synth3-n0n1.n0n2.p0n1.p0n2.p1n2.p2n1",
    )


def test_turn_model_decides_the_same_176(census):
    """Step 4's id-level decider and the object-level oracle, candidate by
    candidate on the turn-induced dependency graph of a 3x3x3 mesh, agree
    with each other and with the certifier's census."""
    mesh = Mesh((3, 3, 3))
    step4_free = set()
    for prohibited in enumerate_candidates(3)[0]:
        restriction = TurnRestriction(3, prohibited)
        verdict = restriction_is_deadlock_free(mesh, restriction)
        assert turn_cdg_is_acyclic(mesh, restriction) == verdict, synth_name(3, prohibited)
        if verdict:
            step4_free.add(synth_name(3, prohibited))
    census_free = {
        member
        for outcome in census.outcomes
        if outcome.deadlock_free
        for member in outcome.members
    }
    assert len(census_free) == 176
    assert step4_free == census_free
