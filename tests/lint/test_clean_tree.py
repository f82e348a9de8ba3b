"""Acceptance gate: the real source tree lints clean.

This is the test CI leans on: the full rule catalog over ``src/repro``
must produce zero active findings, and every pragma suppression in the
tree must carry its justification (a reasonless pragma is itself a
finding, so ``ok`` already implies that — the explicit loop documents
the audit trail the JSON report exposes).
"""

from __future__ import annotations

from repro.lint import all_rules, run_lint


def test_source_tree_is_clean():
    report = run_lint()  # default root: the installed repro package
    assert report.findings == [], "\n".join(
        finding.render() for finding in report.findings
    )
    assert report.ok
    assert report.modules_checked > 50
    assert len(report.rules) >= 7


def test_every_suppression_carries_a_reason():
    report = run_lint()
    assert report.suppressed, "the tree documents its known exceptions"
    for entry in report.suppressed:
        assert entry.reason.strip()


def test_known_suppressions_inventory():
    """The tree's accepted exceptions, pinned so new ones are deliberate."""
    report = run_lint()
    inventory = sorted(
        (entry.finding.path.rsplit("/", 2)[-1], entry.finding.rule)
        for entry in report.suppressed
    )
    assert inventory == [
        ("channels.py", "hash-stability"),
        ("directions.py", "hash-stability"),
        ("manifest.py", "no-wallclock"),
        ("virtual_channels.py", "hash-stability"),
    ]


def test_rule_catalog_ids_are_kebab_case():
    for rule_id in all_rules():
        assert rule_id == rule_id.lower()
        assert " " not in rule_id and "_" not in rule_id
