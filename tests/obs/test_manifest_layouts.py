"""Manifest layouts and the one point record.

Version 2 manifests splice the point record — the bytes the result
cache stores — in unparsed under ``record``; version 1 manifests kept
``result`` / ``metrics`` / ``resilience`` at the top level.  Both load,
render and report the same, a cached rerun's manifest embeds the cache
entry byte for byte, and a point's numbers are encoded once.

The obs summary inside has layouts of its own: ``obs_schema_version`` 2
stores the channel accumulators as columns, 1 stored one
``per_channel`` record per channel.  A schema-1 manifest of either
manifest version reports exactly as its schema-2 twin; a schema-1 cache
entry is rejected, re-simulated and rewritten.
"""

import json

import pytest

import repro.analysis.executor as executor_module
from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    ResultCache,
    SweepExecutor,
)
from repro.analysis.results_io import result_to_dict
from repro.api import run
from repro.cli import main
from repro.obs.manifest import iter_manifests, load_manifest, manifest_path
from repro.obs.report import render_manifest_report
from repro.obs.spec import ObsSpec
from tests.sim.golden_scenarios import schema_1_obs_summary

CONFIG = ConfigSpec(warmup_cycles=100, measure_cycles=500, drain_cycles=200)


def spec(**overrides):
    fields = dict(
        topology="mesh:5x5", routing="west-first", pattern="uniform", load=0.1,
        sizes=((4, 0.5), (24, 0.5)), config=CONFIG, seed=3,
        obs=ObsSpec(timeline_window=100),
        resilience=ResilienceSpec(fault_count=2, fault_seed=5),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def write_version_1(root, manifest, outcome, *, warm=False, obs_schema=2):
    """What the executor wrote for ``outcome`` before the record was
    spliced in: the same header under ``manifest_version`` 1, the
    numbers at the top level in the key order the run produced them,
    indented; with ``warm``, the executor block of the warm/cold
    switch's days; with ``obs_schema`` 1, the obs summary in the
    per-record channel layout."""
    body = {
        key: value for key, value in manifest.items()
        if key not in ("resilience", "metrics", "result")
    }
    body["manifest_version"] = 1
    if warm:
        block = body["executor"]
        body["executor"] = {
            "jobs": block["jobs"], "warm": True,
            "cache_problem": block["cache_problem"],
        }
    body["resilience"] = outcome.resilience
    body["metrics"] = (
        schema_1_obs_summary(outcome.metrics) if obs_schema == 1 else outcome.metrics
    )
    body["result"] = result_to_dict(outcome.result)
    path = manifest_path(root, manifest["spec_hash"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=2, sort_keys=False))
    return path


def schema_1_record(record):
    """A point record (JSON text) as it was encoded while obs summaries
    were in schema 1: compact, sorted keys."""
    payload = json.loads(record)
    payload["obs"] = schema_1_obs_summary(payload["obs"])
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_schema_1_version_2(root, current):
    """The version-2 manifest at ``current`` with its record's obs
    summary in schema 1: what the executor wrote before the channel
    columns."""
    text = current.read_text()
    header, marker, record = text.partition(',"record":')
    path = root / current.name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{header}{marker}{schema_1_record(record[:-1])}}}")
    return path


def run_fresh(root, points):
    """Run ``points`` fresh with manifests; (outcomes, manifest paths)."""
    with SweepExecutor(jobs=1, manifest_dir=root) as executor:
        outcomes = executor.run_points(points)
    paths = [manifest_path(root, o.point.spec.content_hash()) for o in outcomes]
    return outcomes, paths


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """One faulted, instrumented point, freshly run and manifested."""
    (outcome,), (path,) = run_fresh(
        tmp_path_factory.mktemp("v2"), [PointSpec(spec=spec(), series="s")]
    )
    return outcome, path


class TestBothLayoutsReadTheSame:
    @pytest.mark.parametrize("warm", [False, True])
    def test_render_is_byte_identical(self, fresh, tmp_path, warm):
        outcome, current = fresh
        manifest = load_manifest(current)
        assert manifest["manifest_version"] == 2
        earlier = write_version_1(tmp_path, manifest, outcome, warm=warm)
        rendered = render_manifest_report(manifest)
        assert render_manifest_report(load_manifest(earlier)) == rendered
        for section in ("recertify: 2 proofs", "cruise:", "resilience ledger",
                        "Channel utilization heatmap", "Hottest channels",
                        "Timeline (100-cycle windows"):
            assert section in rendered

    @pytest.mark.parametrize("warm", [False, True])
    def test_report_out_json_is_byte_identical(self, fresh, tmp_path, warm, capsys):
        outcome, current = fresh
        earlier = write_version_1(
            tmp_path / "v1", load_manifest(current), outcome, warm=warm
        )
        outs = []
        for path in (current, earlier):
            out = tmp_path / f"report-{len(outs)}.json"
            assert main(["report", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        (entry,) = json.loads(outs[0])["manifests"]
        assert entry["resilience"]["recertifications"] == 2

    @pytest.mark.parametrize("layout", ["version-1", "version-2"])
    def test_a_schema_1_obs_summary_reports_byte_identically(
        self, fresh, tmp_path, layout, capsys
    ):
        outcome, current = fresh
        if layout == "version-1":
            earlier = write_version_1(
                tmp_path / "old", load_manifest(current), outcome, obs_schema=1
            )
        else:
            earlier = write_schema_1_version_2(tmp_path / "old", current)
        assert "per_channel" in earlier.read_text()
        manifest = load_manifest(earlier)
        assert manifest["metrics"] == json.loads(json.dumps(outcome.metrics))
        assert render_manifest_report(manifest) == render_manifest_report(
            load_manifest(current)
        )
        outs = []
        for path in (current, earlier):
            out = tmp_path / f"report-{len(outs)}.json"
            assert main(["report", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        (entry,) = json.loads(outs[0])["manifests"]
        assert len(entry["hottest_channels"]) == 8

    def test_malformed_schema_1_channels_are_skipped_with_a_warning(
        self, fresh, tmp_path
    ):
        outcome, current = fresh
        earlier = write_version_1(
            tmp_path, load_manifest(current), outcome, obs_schema=1
        )
        document = json.loads(earlier.read_text())
        del document["metrics"]["channels"]["per_channel"][0]["busy_samples"]
        earlier.write_text(json.dumps(document))
        with pytest.warns(UserWarning, match="malformed schema-1 channel records"):
            assert iter_manifests(tmp_path) == []

    def test_iter_manifests_reads_a_directory_mixing_both(self, tmp_path):
        points = [PointSpec(spec=spec(seed=seed), series="s", index=index)
                  for index, seed in enumerate((3, 4))]
        outcomes, paths = run_fresh(tmp_path, points)
        write_version_1(tmp_path, load_manifest(paths[0]), outcomes[0])
        manifests = iter_manifests(tmp_path)
        assert [m["manifest_version"] for m in manifests] == [1, 2]
        assert set(manifests[0]) == set(manifests[1])
        for manifest, outcome in zip(manifests, outcomes):
            assert manifest["result"] == json.loads(
                json.dumps(result_to_dict(outcome.result)))
            assert manifest["metrics"] == json.loads(json.dumps(outcome.metrics))
            assert manifest["resilience"] == outcome.resilience

    def test_a_malformed_record_is_skipped_with_a_warning(self, fresh, tmp_path):
        _outcome, current = fresh
        document = json.loads(current.read_text())
        document["record"] = ["not", "a", "record"]
        (tmp_path / current.name).write_text(json.dumps(document))
        with pytest.warns(UserWarning, match="malformed record"):
            assert iter_manifests(tmp_path) == []


class TestObsCacheLayout:
    def test_a_schema_1_entry_is_re_simulated_and_rewritten(self, tmp_path):
        point = PointSpec(spec=spec(), series="s")
        dirs = dict(cache_dir=tmp_path / "cache", manifest_dir=tmp_path / "runs")
        cache = ResultCache(tmp_path / "cache")
        entry = cache.path_for(point.spec)
        with SweepExecutor(jobs=1, **dirs) as executor:
            (first,) = executor.run_points([point])
        current = entry.read_text()
        entry.write_text(schema_1_record(current))
        assert cache.read_entry(point.spec) == (
            None, "obs summary has obs_schema_version 1"
        )
        with SweepExecutor(jobs=1, **dirs) as executor:
            (again,) = executor.run_points([point])
            assert executor.last_metrics.cache_rejected == 1
        assert not again.cached
        assert again.cache_problem == "obs summary has obs_schema_version 1"
        assert again.result == first.result and again.metrics == first.metrics
        assert entry.read_text() == current
        manifest = load_manifest(manifest_path(tmp_path / "runs",
                                               point.spec.content_hash()))
        assert manifest["executor"]["cache_problem"] == again.cache_problem
        with SweepExecutor(jobs=1, **dirs) as executor:
            (third,) = executor.run_points([point])
        assert third.cached and third.cache_problem is None

    def test_a_mesh_16x16_obs_record_is_under_32_kib(self):
        point = ExperimentSpec(
            topology="mesh:16x16", routing="west-first", pattern="uniform",
            load=0.05, sizes=((4, 0.5), (24, 0.5)), seed=7, obs=ObsSpec(),
            config=ConfigSpec(warmup_cycles=200, measure_cycles=800,
                              drain_cycles=200),
        )
        outcome = run(point)
        assert len(outcome.metrics["channels"]["channel"]) == 960
        record = executor_module.encode_point_record(outcome)
        assert len(record.encode("utf-8")) < 32 * 1024


class TestOneRecordPerPoint:
    def test_cached_rerun_manifest_embeds_the_cache_entry_verbatim(self, tmp_path):
        point = PointSpec(spec=spec())
        for expect_cached in (False, True):
            with SweepExecutor(jobs=1, cache_dir=tmp_path / "cache",
                               manifest_dir=tmp_path / "runs") as executor:
                (outcome,) = executor.run_points([point])
            assert outcome.cached is expect_cached
            entry = ResultCache(tmp_path / "cache").path_for(point.spec).read_text()
            text = manifest_path(tmp_path / "runs", point.spec.content_hash()).read_text()
            assert text.endswith(f',"record":{entry}}}')

    def test_each_point_is_encoded_once_and_a_cache_hit_not_at_all(
        self, tmp_path, monkeypatch
    ):
        encoded = []
        real = executor_module.encode_point_record

        def counting(*args, **kwargs):
            encoded.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "encode_point_record", counting)
        point = spec(resilience=None)
        dirs = dict(cache_dir=str(tmp_path / "cache"),
                    manifest_dir=str(tmp_path / "runs"))
        assert not run(point, **dirs).cached
        assert len(encoded) == 1  # the cache entry; the manifest reuses it
        assert run(point, **dirs).cached
        assert len(encoded) == 1  # a hit encodes nothing
        run(point, manifest_dir=str(tmp_path / "uncached"))
        assert len(encoded) == 2  # no cache: the manifest encodes its own
