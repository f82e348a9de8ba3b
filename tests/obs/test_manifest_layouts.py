"""Manifest layouts and the one point record.

Version 2 manifests splice the point record — the bytes the result
cache stores — in unparsed under ``record``; version 1 manifests kept
``result`` / ``metrics`` / ``resilience`` at the top level.  Both load,
render and report the same, a cached rerun's manifest embeds the cache
entry byte for byte, and a point's numbers are encoded once.
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


def write_version_1(root, manifest, outcome, *, warm=False):
    """What the executor wrote for ``outcome`` before the record was
    spliced in: the same header under ``manifest_version`` 1, the
    numbers at the top level in the key order the run produced them,
    indented; with ``warm``, the executor block of the warm/cold
    switch's days."""
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
    body["metrics"] = outcome.metrics
    body["result"] = result_to_dict(outcome.result)
    path = manifest_path(root, manifest["spec_hash"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=2, sort_keys=False))
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
