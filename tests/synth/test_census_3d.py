"""The synthesis census one dimension up: the full 3D mesh space.

Step 4 on a 3x3x3 mesh enumerates 4096 prohibition sets.  176 prevent
deadlock and 3920 do not; they fall into 120 classes under the
48-element symmetry group of the cube, 9 of them certified.  Three of
the nine are the paper's Section 4.1 algorithms; the other six are
unnamed classes of orbit 24.
"""

from collections import Counter

import pytest

from repro.synth import SynthSpec, run_synthesis


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
