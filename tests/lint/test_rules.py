"""Each lint rule fires on its known-bad fixture and nowhere else."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint

BADTREE = Path(__file__).parent / "fixtures" / "badtree"

#: rule id -> list of (fixture relpath, line) the rule must flag, exactly.
EXPECTED = {
    "seeded-rng": [
        ("sim/rng.py", 9),
        ("sim/rng.py", 13),
        ("sim/rng.py", 17),
        ("sim/rng.py", 26),
    ],
    "no-wallclock": [
        ("sim/clock.py", 9),
        ("sim/clock.py", 13),
        ("sim/clock.py", 17),
    ],
    "hash-stability": [("routing/chooser.py", 7)],
    "guarded-hooks": [
        ("sim/engine.py", 10),
        ("sim/engine.py", 14),
    ],
    "worker-purity": [
        ("analysis/executor.py", 7),
        ("analysis/executor.py", 8),
        ("analysis/executor.py", 13),
    ],
    "single-factory": [
        ("analysis/runner.py", 8),
        ("analysis/runner.py", 12),
    ],
    "no-silent-except": [
        ("analysis/silent.py", 12),
        ("analysis/silent.py", 20),
        ("analysis/silent.py", 24),
        ("analysis/silent.py", 28),
    ],
    "one-writer": [
        ("analysis/writers.py", 8),
        ("analysis/writers.py", 12),
        ("analysis/writers.py", 16),
        ("analysis/writers.py", 21),
        ("analysis/writers.py", 26),
        ("analysis/writers.py", 31),
        ("obs/envelope.py", 19),
    ],
    "frozen-spec": [
        ("core/spec.py", 9),
        ("core/spec.py", 15),
        ("core/spec.py", 16),
    ],
    "uses-in-channel": [("routing/algo.py", 6)],
    "registry-canonical": [("routing/registry.py", 6)],
    "registry-class-name": [("routing/registry.py", 7)],
    "all-complete": [
        ("obs/badall.py", 1),
        ("obs/badall.py", 1),
    ],
}


def _locations(findings, rule):
    return [(f.path, f.line) for f in findings if f.rule == rule]


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_rule_fires_on_its_fixture(rule_id):
    report = run_lint(BADTREE, rules=[rule_id])
    got = _locations(report.findings, rule_id)
    want = EXPECTED[rule_id]
    assert len(got) == len(want), report.findings
    for (path, line), (want_path, want_line) in zip(sorted(got), sorted(want)):
        assert path.endswith(want_path)
        assert line == want_line


def test_catalog_has_at_least_seven_rules():
    catalog = all_rules()
    assert len(catalog) >= 7
    assert set(EXPECTED) == set(catalog), "every rule needs a bad fixture"
    for rule_id, rule in catalog.items():
        assert rule.id == rule_id
        assert rule.summary


def test_full_catalog_totals():
    report = run_lint(BADTREE)
    assert not report.ok
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    # Every catalog rule plus the 4 malformed pragmas.
    assert len(report.findings) == sum(len(v) for v in EXPECTED.values()) + 4
    assert len(by_rule["bad-pragma"]) == 4


def test_suppressions_round_trip():
    report = run_lint(BADTREE)
    suppressed = {
        (s.finding.rule, s.finding.line): s.reason for s in report.suppressed
    }
    assert suppressed == {
        ("hash-stability", 11): "int-tuple operands only",
        ("no-wallclock", 26): "metadata stamp only, never digested",
    }
    # A suppressed location must not also appear as an active finding.
    active = {(f.rule, f.path, f.line) for f in report.findings}
    for entry in report.suppressed:
        f = entry.finding
        assert (f.rule, f.path, f.line) not in active


def test_bad_pragmas_surface_even_under_rule_subset():
    report = run_lint(BADTREE, rules=["frozen-spec"])
    bad = [f for f in report.findings if f.rule == "bad-pragma"]
    assert len(bad) == 4
    assert all(f.path.endswith("sim/pragma_bad.py") for f in bad)


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint(BADTREE, rules=["no-such-rule"])
