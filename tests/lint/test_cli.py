"""The ``repro lint`` CLI: exit codes, JSON envelope, rule selection."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BADTREE = Path(__file__).parent / "fixtures" / "badtree"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_clean_tree_exits_zero():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_bad_tree_exits_one_with_findings():
    proc = _run_cli("--root", str(BADTREE))
    assert proc.returncode == 1
    assert "[seeded-rng]" in proc.stdout
    assert "[guarded-hooks]" in proc.stdout


def test_json_format_is_enveloped():
    proc = _run_cli("--root", str(BADTREE), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["schema_version"] == 1
    assert payload["tool"] == "lint"
    assert payload["kind"] == "lint"
    assert payload["ok"] is False
    assert payload["findings"]
    sample = payload["findings"][0]
    assert set(sample) == {"path", "line", "rule", "message"}


def test_rule_subset_selection():
    proc = _run_cli("--root", str(BADTREE), "--rule", "frozen-spec",
                    "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert set(payload["rules"]) == {"frozen-spec"}
    rules_hit = {f["rule"] for f in payload["findings"]}
    # frozen-spec findings plus the never-suppressible pragma problems.
    assert rules_hit == {"frozen-spec", "bad-pragma"}


def test_unknown_rule_exits_two():
    proc = _run_cli("--rule", "no-such-rule")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("seeded-rng", "no-wallclock", "hash-stability",
                    "guarded-hooks", "worker-purity", "frozen-spec",
                    "all-complete"):
        assert rule_id in proc.stdout


def test_out_writes_envelope(tmp_path):
    out = tmp_path / "lint-report.json"
    proc = _run_cli("--root", str(BADTREE), "--out", str(out))
    assert proc.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["tool"] == "lint"
    assert payload["ok"] is False
    assert payload["suppressed"]
    for entry in payload["suppressed"]:
        assert entry["reason"].strip()
