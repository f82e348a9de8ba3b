"""The shared --out envelope and the structured run manifests."""

import dataclasses
import json
import subprocess

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    SweepExecutor,
    encode_point_record,
)
from repro.analysis.results_io import result_to_dict
from repro.obs.envelope import (
    ENVELOPE_SCHEMA_VERSION,
    attach_envelope,
    load_envelope,
    save_envelope,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    git_describe,
    iter_manifests,
    load_manifest,
    manifest_path,
    write_manifest,
)
from repro.obs.spec import ObsSpec


def _spec(**overrides):
    fields = dict(
        topology="mesh:4x4",
        routing="west-first",
        pattern="uniform",
        load=0.1,
        sizes=((4, 1.0),),
        config=ConfigSpec(warmup_cycles=50, measure_cycles=200, drain_cycles=100),
        seed=2,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestEnvelope:
    def test_attach_puts_envelope_keys_first(self):
        doc = attach_envelope({"cells": []}, "resilience", spec_hash="abc")
        assert list(doc) == ["schema_version", "tool", "spec_hash", "cells"]
        assert doc["schema_version"] == ENVELOPE_SCHEMA_VERSION

    def test_spec_hash_omitted_when_absent(self):
        doc = attach_envelope({"kind": "sweep-run"}, "sweep")
        assert "spec_hash" not in doc
        assert doc["kind"] == "sweep-run"

    def test_key_collision_rejected(self):
        with pytest.raises(ValueError, match="envelope key"):
            attach_envelope({"tool": "mine"}, "sweep")

    def test_empty_tool_rejected(self):
        with pytest.raises(ValueError, match="tool"):
            attach_envelope({}, "")

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "artifact.json"
        written = save_envelope({"value": 7}, "bench", path)
        assert load_envelope(path, expect_tool="bench") == written

    def test_load_rejects_wrong_tool(self, tmp_path):
        path = tmp_path / "artifact.json"
        save_envelope({}, "bench", path)
        with pytest.raises(ValueError, match="expected a 'verify'"):
            load_envelope(path, expect_tool="verify")

    def test_load_rejects_unenveloped_and_future_documents(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"kind": "sweep-run"}))
        with pytest.raises(ValueError, match="not an enveloped"):
            load_envelope(bare)
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps({"schema_version": ENVELOPE_SCHEMA_VERSION + 1, "tool": "x"})
        )
        with pytest.raises(ValueError, match="newer than supported"):
            load_envelope(future)


class TestManifest:
    def test_build_write_load_round_trip(self, tmp_path):
        spec = _spec(obs=ObsSpec())
        full = spec.run_full()
        manifest = build_manifest(
            dataclasses.replace(full, wall_time_s=1.25, series="west-first", index=3),
            certification={"required": False, "certified": False},
            git_version="testversion",
        )
        assert manifest["tool"] == "manifest"
        assert manifest["manifest_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["spec_hash"] == spec.content_hash()
        assert manifest["git_describe"] == "testversion"
        assert manifest["point"] == {"series": "west-first", "index": 3}
        assert manifest["timings"]["wall_time_s"] == 1.25
        assert manifest["spec"] == spec.to_dict()
        assert manifest["record"] == encode_point_record(full)

        path = write_manifest(manifest, tmp_path)
        assert path == manifest_path(tmp_path, spec.content_hash())
        assert manifest["record"] in path.read_text()
        # The manifest is a JSON document: loading it back yields the
        # JSON normalization (e.g. int dict keys become strings), with
        # the record lifted to the flat result / metrics / resilience.
        loaded = load_manifest(path)
        header = {key: value for key, value in manifest.items() if key != "record"}
        assert loaded == {
            **json.loads(json.dumps(header)),
            "resilience": None,
            "metrics": json.loads(json.dumps(full.metrics)),
            "result": json.loads(json.dumps(result_to_dict(full.result))),
        }
        assert loaded["metrics"]["counters"]["delivered_packets"] > 0

    @staticmethod
    def _write_two(root):
        paths = []
        for index, seed in enumerate((5, 3)):
            spec = _spec(seed=seed)
            manifest = build_manifest(
                dataclasses.replace(spec.run_full(), series="s", index=index),
                git_version=None,
            )
            paths.append(write_manifest(manifest, root))
        return paths

    def test_iter_manifests_sorts_and_skips_junk(self, tmp_path):
        self._write_two(tmp_path)
        (tmp_path / "manifest-notjson.json").write_text("{broken")
        (tmp_path / "unrelated.json").write_text("{}")
        with pytest.warns(UserWarning, match="manifest-notjson.json"):
            manifests = iter_manifests(tmp_path)
        assert [m["point"]["index"] for m in manifests] == [0, 1]

    def test_truncated_manifest_is_skipped_with_one_warning(self, tmp_path):
        first, second = self._write_two(tmp_path)
        text = second.read_text()
        second.write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning) as caught:
            manifests = iter_manifests(tmp_path)
        assert len(caught) == 1
        assert str(caught[0].message).startswith(
            f"skipped unreadable manifest {second}: "
        )
        assert [m["spec_hash"] for m in manifests] == [
            load_manifest(first)["spec_hash"]
        ]

    def test_executor_writes_manifest_on_fresh_and_cached_runs(self, tmp_path):
        spec = _spec(obs=ObsSpec(timeline_window=64))
        cache = tmp_path / "cache"
        manifests = tmp_path / "runs"
        for expect_cached in (False, True):
            executor = SweepExecutor(
                jobs=1, cache_dir=str(cache), manifest_dir=str(manifests)
            )
            (outcome,) = executor.run_points([PointSpec(spec=spec)])
            assert outcome.cached is expect_cached
            manifest = load_manifest(manifest_path(manifests, spec.content_hash()))
            assert manifest["timings"]["cached"] is expect_cached
            assert manifest["metrics"]["counters"]["delivered_packets"] > 0
            assert manifest["result"]["total_delivered"] > 0

    def test_git_describe_reports_this_repo_or_none(self):
        version = git_describe()
        assert version is None or isinstance(version, str)
        assert git_describe(cwd="/nonexistent-dir-xyz") is None

    def test_git_is_asked_once_per_process_outside_a_work_tree(
        self, tmp_path, monkeypatch
    ):
        """Outside a work tree the answer is None, and None is remembered
        too: two executors writing eight manifests fork git once."""
        calls = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            if args[0] == "git":
                calls.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        monkeypatch.chdir(tmp_path)
        points = [
            PointSpec(spec=_spec(seed=seed), index=index)
            for index, seed in enumerate((1, 2, 3, 4))
        ]
        for _ in range(2):
            with SweepExecutor(jobs=1, manifest_dir=tmp_path / "runs") as executor:
                executor.run_points(points)
        assert len(calls) == 1
        manifests = iter_manifests(tmp_path / "runs")
        assert len(manifests) == 4
        assert all(m["git_describe"] is None for m in manifests)
