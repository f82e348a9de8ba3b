"""What the cruise state did is visible, and only visible.

``WormholeSimulator.cruise_entries`` / ``cruise_worm_cycles`` ride on
``RunResult`` into the manifest's ``timings`` block and one ``cruise:``
line of ``repro report`` — and nowhere a digest, a content hash or a
cache entry could see them (the same contract as ``recertify_s``,
``tests/obs/test_recertify_timing.py``).
"""

import json

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    RunResult,
    SweepExecutor,
)
from repro.analysis.results_io import result_to_dict
from repro.api import run
from repro.obs.manifest import build_manifest, load_manifest
from repro.obs.report import render_manifest_report
from repro.obs.spec import ObsSpec

CONFIG = ConfigSpec(warmup_cycles=100, measure_cycles=500, drain_cycles=200)


def spec(**overrides):
    fields = dict(
        topology="mesh:5x5", routing="xy", pattern="uniform", load=0.2,
        sizes=((4, 0.5), (60, 0.5)), config=CONFIG, seed=3,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestCarriedOnTheRun:
    def test_run_full_reports_the_engines_counters(self):
        full = spec().run_full()
        assert full.cruise_entries > 0
        # A 60-flit worm on a 5x5 mesh streams for most of its length.
        assert full.cruise_worm_cycles > 20 * full.cruise_entries

    def test_deep_buffers_never_cruise(self):
        deep = ConfigSpec(warmup_cycles=100, measure_cycles=500,
                          drain_cycles=200, buffer_depth=2)
        full = spec(config=deep).run_full()
        assert (full.cruise_entries, full.cruise_worm_cycles) == (0, 0)

    def test_facade_and_executor_pass_them_through(self, tmp_path):
        plain = spec().run_full()
        first = run(spec(), manifest_dir=str(tmp_path / "m"),
                    cache_dir=str(tmp_path / "c"))
        assert first.cruise_entries == plain.cruise_entries
        assert first.cruise_worm_cycles == plain.cruise_worm_cycles
        again = run(spec(), manifest_dir=str(tmp_path / "m"),
                    cache_dir=str(tmp_path / "c"))
        # A cache hit moved no worm this time.
        assert again.cached
        assert again.cruise_entries is None
        assert again.cruise_worm_cycles is None
        assert again.result == first.result


class TestInvisible:
    def test_not_in_the_hash_the_cache_entry_or_the_result(self, tmp_path):
        point = spec()
        with SweepExecutor(jobs=1, cache_dir=str(tmp_path)) as executor:
            (outcome,) = executor.run_points([PointSpec(spec=point)])
        assert outcome.cruise_entries > 0
        assert "cruise" not in json.dumps(point.to_dict())
        (entry,) = tmp_path.glob("*.json")
        assert "cruise" not in entry.read_text()
        assert "cruise" not in json.dumps(result_to_dict(outcome.result))

    def test_not_in_the_obs_summary(self):
        full = spec(obs=ObsSpec()).run_full()
        assert full.cruise_entries > 0
        assert "cruise" not in json.dumps(full.metrics)


class TestManifestAndReport:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifests")
        with SweepExecutor(jobs=1, manifest_dir=str(root)) as executor:
            executor.run_points([PointSpec(spec=spec())])
        (path,) = root.glob("manifest-*.json")
        return load_manifest(path)

    def test_timings_block_carries_them(self, manifest):
        timings = manifest["timings"]
        plain = spec().run_full()
        assert timings["cruise_entries"] == plain.cruise_entries
        assert timings["cruise_worm_cycles"] == plain.cruise_worm_cycles

    def test_report_prints_one_cruise_line(self, manifest):
        timings = manifest["timings"]
        lines = render_manifest_report(manifest).splitlines()
        (line,) = [text for text in lines if text.startswith("cruise:")]
        assert line == (
            f"cruise: {timings['cruise_entries']} worms streamed "
            f"{timings['cruise_worm_cycles']} worm-cycles in aggregate"
        )

    def test_earlier_manifests_still_load_and_render(self, manifest, tmp_path):
        old = dict(manifest)
        old["timings"] = {
            key: value for key, value in manifest["timings"].items()
            if not key.startswith("cruise")
        }
        path = tmp_path / "manifest-old.json"
        path.write_text(json.dumps(old))
        assert "cruise:" not in render_manifest_report(load_manifest(path))

    def test_cached_manifest_has_no_cruise_keys(self):
        full = spec().run_full()
        manifest = build_manifest(
            RunResult(spec=full.spec, result=full.result, cached=True),
            git_version="test",
        )
        assert manifest["timings"] == {"wall_time_s": 0.0, "cached": True}
        assert "cruise:" not in render_manifest_report(manifest)
