"""One cycle search per closure, shared by the deadlock and livelock checks.

:func:`repro.verify.verify_target` decides a target's relation once, on
the closure's channel ids: a Kahn pass decides, and only a cyclic
relation runs the shortest-cycle search behind its witness.  Both
refutations then carry that one witness.
"""

import pytest

from repro.routing.synth_names import parse_synth_name
from repro.synth.certify import candidate_target
from repro.topology.spec import parse_topology
from repro.verify import (
    PROOF_CHECKERS,
    REFUTED,
    check_deadlock_freedom,
    check_livelock_freedom,
    deadlock,
    default_targets,
    verify_target,
)

#: A deadlocked class of the 3D census (orbit 24).
REFUTED_3D = "synth3-n0n1.n0n2.n0p1.n0p2.n1n2.n2n1"

#: A certified class of the 3D census, the top-ranked one.
CERTIFIED_3D = "synth3-n0n1.n0n2.n0p1.n1n2.p0n2.p1n2"


@pytest.fixture
def shortest_cycle_calls(monkeypatch):
    """How many times the id-level shortest-cycle search has run."""
    calls = []
    original = deadlock._shortest_cycle

    def counted(succ):
        calls.append(succ)
        return original(succ)

    monkeypatch.setattr(deadlock, "_shortest_cycle", counted)
    return calls


def _target(label):
    return next(t for t in default_targets() if t.label == label)


def _synth_target(name):
    topology = parse_topology("mesh:3x3x3")
    _, prohibited, _ = parse_synth_name(name)
    return candidate_target(topology, "mesh:3x3x3", prohibited)


def _check(report, name):
    return next(check for check in report.checks if check.check == name)


@pytest.mark.parametrize(
    "target,checkers",
    [
        pytest.param(
            lambda: _target("fixture:figure1/unrestricted-adaptive"), None, id="figure1"
        ),
        pytest.param(lambda: _synth_target(REFUTED_3D), PROOF_CHECKERS, id="synth3d"),
    ],
)
def test_refutations_carry_one_witness(target, checkers, shortest_cycle_calls):
    report = verify_target(target(), checkers)
    deadlock = _check(report, "deadlock-freedom")
    livelock = _check(report, "livelock-freedom")
    assert deadlock.verdict == livelock.verdict == REFUTED
    assert deadlock.certificate.data["rendered"] == livelock.certificate.data["rendered"]
    assert deadlock.certificate.data == livelock.certificate.data
    assert len(shortest_cycle_calls) == 1


def test_shared_witness_is_the_stand_alone_one():
    target = _synth_target(REFUTED_3D)
    report = verify_target(target, PROOF_CHECKERS)
    for name, checker in (
        ("deadlock-freedom", check_deadlock_freedom),
        ("livelock-freedom", check_livelock_freedom),
    ):
        alone = checker(target.topology, target.routing)
        assert _check(report, name).to_dict() == alone.to_dict()


@pytest.mark.parametrize(
    "target,checkers",
    [
        pytest.param(lambda: _target("mesh:5x4/west-first"), None, id="west-first"),
        pytest.param(
            lambda: _synth_target(CERTIFIED_3D), PROOF_CHECKERS, id="synth3d"
        ),
    ],
)
def test_a_proved_target_never_searches_for_a_shortest_cycle(
    target, checkers, shortest_cycle_calls
):
    report = verify_target(target(), checkers)
    assert report.certified
    assert shortest_cycle_calls == []
