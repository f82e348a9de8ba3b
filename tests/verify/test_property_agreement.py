"""Agreement test: the certifier and Step 4 decide the same candidates.

Step 4 of the turn model enumerates every way of prohibiting one
90-degree turn from each abstract cycle and keeps those whose remaining
turns induce an acyclic dependency graph.  Three deciders must reach the
same verdict on every candidate, including the four Figure-4-style traps
that nominally break both cycles yet still deadlock: the static
certifier, from the exact routing relation of the induced turn-table
router; Step 4's own id-level decider
(:func:`~repro.core.channel_graph.restriction_is_deadlock_free`); and
the object-level turn-induced graph of the test oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel_graph import restriction_is_deadlock_free
from repro.core.restrictions import TurnRestriction
from repro.core.turns import ninety_degree_turns
from repro.routing.turn_table import TurnRestrictionRouting
from repro.synth import enumerate_candidates
from repro.topology import Mesh2D
from repro.verify import REFUTED, check_deadlock_freedom
from tests.core.cdg_oracle import turn_cdg_is_acyclic

_CANDIDATES = enumerate_candidates(2)[0]


def _routing(mesh: Mesh2D, prohibited) -> TurnRestrictionRouting:
    # Nonminimal mode mirrors the turn-induced dependency graph that
    # Step 4 validates (every permitted turn at every node is usable).
    restriction = TurnRestriction(2, frozenset(prohibited), name="candidate")
    return TurnRestrictionRouting(mesh, restriction, minimal=False)


@pytest.mark.parametrize(
    "choice", _CANDIDATES, ids=lambda c: "+".join(sorted(map(str, c)))
)
def test_certifier_agrees_with_step4(choice):
    mesh = Mesh2D(4, 4)
    restriction = TurnRestriction(2, choice)
    step4 = restriction_is_deadlock_free(mesh, restriction)
    assert turn_cdg_is_acyclic(mesh, restriction) == step4
    result = check_deadlock_freedom(mesh, _routing(mesh, choice))
    assert (result.verdict != REFUTED) == step4, (
        f"certifier and Step 4 disagree on {sorted(map(str, choice))}: "
        f"verdict={result.verdict}, step4 says "
        f"{'deadlock-free' if step4 else 'deadlocking'}"
    )


def test_census_totals_match():
    """All 16 candidates: 12 certify, 4 refute — the paper's census.

    Delegates to the synthesis engine, which runs this same certifier
    over this same Step 4 space; the full acceptance suite (rediscovery
    up to symmetry included) lives in ``tests/synth/test_census.py``.
    """
    from repro.synth import SynthSpec, run_synthesis

    result = run_synthesis(SynthSpec(topology="mesh:4x4"))
    assert result.enumerated == 16
    assert result.deadlock_free == 12
    assert result.deadlocked == 4


@given(
    prohibited=st.sets(
        st.sampled_from(sorted(ninety_degree_turns(2))), min_size=0, max_size=4
    )
)
@settings(max_examples=20, deadline=None)
def test_certifier_agrees_on_arbitrary_prohibitions(prohibited):
    """Beyond one-per-cycle: any prohibition set, same agreement.

    Routers whose restriction disconnects some pair are skipped (the
    deadlock comparison only makes sense for connected routing; the
    connectivity checker owns the other case).
    """
    mesh = Mesh2D(3, 3)
    routing = _routing(mesh, prohibited)
    if any(
        not routing.route(None, src, dst)
        for src in mesh.nodes()
        for dst in mesh.nodes()
        if src != dst
    ):
        return
    result = check_deadlock_freedom(mesh, routing)
    expected_free = restriction_is_deadlock_free(mesh, TurnRestriction(2, frozenset(prohibited)))
    assert (result.verdict != REFUTED) == expected_free
