"""Smoke tests for the example scripts.

Each example must at least expose a ``main`` (or demo functions) and the
fast ones are executed end-to-end; the slow sweeps are exercised through
their underlying drivers elsewhere in the suite.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


class TestExamplesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "transpose_mesh.py",
            "hypercube_reverse_flip.py",
            "deadlock_demo.py",
            "custom_turn_model.py",
            "fault_tolerance.py",
            "virtual_channels.py",
            "future_topologies.py",
        ],
    )
    def test_present_and_documented(self, name):
        path = EXAMPLES / name
        assert path.exists(), name
        source = path.read_text()
        assert source.startswith("#!/usr/bin/env python"), name
        assert '"""' in source

    def test_examples_compile(self):
        for path in EXAMPLES.glob("*.py"):
            compile(path.read_text(), str(path), "exec")


class TestExamplesRun:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("quickstart", ["negative-first", "fl/us"]),
            ("future_topologies", ["hex-negative-first", "oct-negative-first"]),
            ("virtual_channels", ["o1turn (2 lanes)", "dateline DOR"]),
        ],
    )
    def test_end_to_end(self, name, expected):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES / f"{name}.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        for text in expected:
            assert text in completed.stdout
