"""Analytic cross-checks: adaptiveness closed forms and the turn minimum.

Two checks beyond the safety trio:

* :func:`check_adaptiveness` compares the degree-of-adaptiveness closed
  forms of Sections 3.4, 4.1, and 5 (``S_west-first``, ``S_negative-first``,
  ``S_p-cube``, ...) against exhaustive shortest-path enumeration on the
  target's compiled route closure — the relation the provers prove and the
  engine routes on (one count per destination, read by every source) —
  over every ordered pair of nodes.  A mismatch means either
  the implementation or the formula has drifted — both have caught bugs
  in networks-on-chip codebases.

* :func:`check_turn_minimum` audits an algorithm's prohibited-turn set
  against Theorem 1 (at least ``n (n-1)`` turns must be prohibited) and
  the Step 4 necessary condition (every abstract cycle broken).  It also
  records whether the algorithm meets the minimum exactly, which is
  Theorem 6's tightness claim (negative-first does).

Both checks skip (rather than vacuously prove) targets the paper gives no
closed form or prohibition set for — torus, hexagonal, octagonal, and
virtual-channel algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.adaptiveness import (
    s_abonf,
    s_abopl,
    s_ecube,
    s_fully_adaptive,
    s_negative_first,
    s_north_last,
    s_west_first,
)
from repro.core.restrictions import TurnRestriction
from repro.core.turns import minimum_prohibited_turns
from repro.routing.base import RoutingAlgorithm
from repro.sim.ids import RouteClosure, shortest_path_counts
from repro.topology.base import Topology
from repro.topology.channels import NodeId
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh, Mesh2D
from repro.verify.deadlock import route_closure
from repro.verify.report import PROVED, REFUTED, SKIPPED, Certificate, CheckResult

__all__ = ["check_adaptiveness", "check_turn_minimum"]

#: How many mismatches a refutation certificate keeps.
_SAMPLE = 20

ClosedForm = Callable[[NodeId, NodeId], int]


def _base_name(routing: RoutingAlgorithm) -> str:
    """The algorithm name with the nonminimal suffix stripped.

    A nonminimal variant permits exactly the minimal paths its minimal
    counterpart does (the enumeration counts distance-decreasing hops
    only), so it shares the closed form.
    """
    name = routing.name
    if name.endswith("-nonminimal"):
        return name[: -len("-nonminimal")]
    return name


#: Closed forms by base algorithm name (Sections 3.4, 4.1, and 5).
#: p-cube is negative-first specialized to binary coordinates, where
#: ``S_negative-first`` reduces to ``h_1! h_0! = S_p-cube``.
_CLOSED_FORMS: Dict[str, ClosedForm] = {
    "xy": s_ecube,
    "yx": s_ecube,
    "e-cube": s_ecube,
    "dimension-order": s_ecube,
    "west-first": s_west_first,
    "north-last": s_north_last,
    "negative-first": s_negative_first,
    "p-cube": s_negative_first,
    "abonf": s_abonf,
    "abopl": s_abopl,
    "unrestricted-adaptive": s_fully_adaptive,
}

def _plain_topology(topology: Topology) -> bool:
    """Whether the closed forms apply: an intact mesh or hypercube."""
    return type(topology) in (Mesh, Mesh2D, Hypercube)


def check_adaptiveness(
    topology: Topology,
    routing: RoutingAlgorithm,
    closure: Optional[RouteClosure] = None,
) -> CheckResult:
    """Cross-check a closed-form ``S`` against exhaustive enumeration
    (reading ``closure`` when the caller already holds the relation)."""
    closed_form = _CLOSED_FORMS.get(_base_name(routing))
    if closed_form is None or not _plain_topology(topology):
        return CheckResult(
            check="adaptiveness",
            verdict=SKIPPED,
            detail="no closed-form S for this algorithm/topology",
        )

    if closure is None:
        closure = route_closure(topology, routing)
    compiled = closure.compiled
    nodes = compiled.index.nodes
    counts = [shortest_path_counts(compiled, d) for d in range(len(nodes))]
    mismatches: List[Dict[str, object]] = []
    pairs = 0
    for s, src in enumerate(nodes):
        for d, dst in enumerate(nodes):
            if s == d:
                continue
            pairs += 1
            expected = closed_form(src, dst)
            counted = counts[d][s]
            if counted != expected:
                mismatches.append(
                    {
                        "src": list(src),
                        "dst": list(dst),
                        "closed_form": expected,
                        "enumerated": counted,
                    }
                )

    if mismatches:
        first = mismatches[0]
        return CheckResult(
            check="adaptiveness",
            verdict=REFUTED,
            detail=(
                f"{len(mismatches)} of {pairs} pairs disagree with the "
                f"closed form; e.g. {tuple(first['src'])} -> "
                f"{tuple(first['dst'])}: closed form {first['closed_form']}, "
                f"enumeration {first['enumerated']}"
            ),
            certificate=Certificate(
                kind="adaptiveness-table",
                summary=f"{len(mismatches)} closed-form mismatches",
                data={
                    "pairs": pairs,
                    "mismatches": mismatches[:_SAMPLE],
                    "mismatch_total": len(mismatches),
                },
            ),
        )

    return CheckResult(
        check="adaptiveness",
        verdict=PROVED,
        detail=(
            f"closed-form S matches exhaustive enumeration on all "
            f"{pairs} ordered pairs"
        ),
        certificate=Certificate(
            kind="adaptiveness-table",
            summary=f"closed form agrees with enumeration on {pairs} pairs",
            data={"pairs": pairs, "mismatch_total": 0},
        ),
    )


def check_turn_minimum(
    topology: Topology, routing: RoutingAlgorithm
) -> CheckResult:
    """Audit the prohibited-turn count against Theorem 1's minimum."""
    restriction = getattr(routing, "restriction", None)
    if not isinstance(restriction, TurnRestriction):
        return CheckResult(
            check="turn-minimum",
            verdict=SKIPPED,
            detail="no mesh turn-prohibition set to audit",
        )

    n_dims = restriction.n_dims
    minimum = minimum_prohibited_turns(n_dims)
    prohibited = sorted(str(turn) for turn in restriction.prohibited)
    count = len(prohibited)
    breaks_all = restriction.breaks_every_abstract_cycle()
    certificate = Certificate(
        kind="turn-audit",
        summary=(
            f"{count} turns prohibited (Theorem 1 minimum {minimum}); "
            f"abstract cycles {'all' if breaks_all else 'NOT all'} broken"
        ),
        data={
            "prohibited": prohibited,
            "count": count,
            "minimum": minimum,
            "at_minimum": count == minimum,
            "breaks_every_abstract_cycle": breaks_all,
        },
    )

    if count < minimum or not breaks_all:
        reason = (
            f"only {count} turns prohibited, below the Theorem 1 minimum "
            f"of {minimum}"
            if count < minimum
            else "some abstract cycle retains all four turns"
        )
        return CheckResult(
            check="turn-minimum",
            verdict=REFUTED,
            detail=reason,
            certificate=certificate,
        )

    tightness = " (exactly the minimum, Theorem 6)" if count == minimum else ""
    return CheckResult(
        check="turn-minimum",
        verdict=PROVED,
        detail=(
            f"{count} >= {minimum} turns prohibited{tightness}; every "
            "abstract cycle broken"
        ),
        certificate=certificate,
    )
