"""The proof's cost is visible, and only visible.

``FaultController.recertify_s`` rides on ``RunResult`` into the
manifest's ``timings`` block, one ``recertify:`` line of ``repro
report`` and the footer of the fault table — and nowhere a digest, a
content hash or a cache entry could see it.  ``degrade_s``, the time
spent deriving the degraded tables, travels the same way.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    RunResult,
    SweepExecutor,
)
from repro.analysis.results_io import result_to_dict
from repro.api import run
from repro.obs.manifest import build_manifest, load_manifest
from repro.obs.report import render_manifest_report
from repro.resilience import fault_sweep, render_fault_table
from repro.sim.config import SimulationConfig
from repro.sim.digest import result_digest

from tests.sim.golden_scenarios import FAULTED_SCENARIOS, summary_digest

PINNED = json.loads(
    (Path(__file__).parent.parent / "sim" / "golden_digests.json").read_text()
)
CONFIG = ConfigSpec(warmup_cycles=100, measure_cycles=500, drain_cycles=200)


def spec(recertify=True, routing="west-first-nonminimal"):
    return ExperimentSpec(
        topology="mesh:5x5", routing=routing, pattern="uniform", load=0.08,
        config=CONFIG, seed=3,
        resilience=ResilienceSpec(fault_count=3, fault_seed=4, recertify=recertify),
    )


class TestCarriedOnTheRun:
    def test_run_full_reports_the_controllers_clock(self):
        full = spec().run_full()
        assert full.resilience["recertifications"] == 3
        assert full.recertify_s is not None and full.recertify_s > 0.0
        assert full.degrade_s is not None and full.degrade_s > 0.0
        assert full.recertify_s + full.degrade_s <= full.wall_time_s

    def test_plain_runs_carry_none(self):
        plain = ExperimentSpec(
            topology="mesh:5x5", routing="xy", pattern="uniform", load=0.08,
            config=CONFIG, seed=3,
        ).run_full()
        assert plain.recertify_s is None and plain.degrade_s is None

    def test_disabled_recertification_reads_zero(self):
        full = spec(recertify=False).run_full()
        assert full.resilience["recertifications"] == 0
        assert full.recertify_s == 0.0
        # The tables are still derived, and that is still timed.
        assert full.degrade_s > 0.0

    def test_facade_and_executor_pass_it_through(self, tmp_path):
        first = run(spec(), manifest_dir=str(tmp_path / "m"),
                    cache_dir=str(tmp_path / "c"))
        assert 0.0 < first.recertify_s <= first.wall_time_s
        again = run(spec(), manifest_dir=str(tmp_path / "m"),
                    cache_dir=str(tmp_path / "c"))
        # A cache hit proved nothing this time.
        assert again.cached and again.recertify_s is None and again.degrade_s is None
        assert again.resilience == first.resilience


class TestInvisible:
    def test_not_in_the_ledger_hash_or_cache_entry(self, tmp_path):
        point = spec()
        with SweepExecutor(jobs=1, cache_dir=str(tmp_path)) as executor:
            (outcome,) = executor.run_points([PointSpec(spec=point)])
        assert outcome.recertify_s > 0.0 and outcome.degrade_s > 0.0
        (entry,) = tmp_path.glob("*.json")
        for key in ("recertify_s", "degrade_s"):
            assert key not in outcome.resilience
            assert key not in json.dumps(point.to_dict())
            assert key not in entry.read_text()
            assert key not in json.dumps(result_to_dict(outcome.result))

    def test_content_hash_and_digest_ignore_the_proof(self):
        proved = spec().run_full()
        unproved = spec(recertify=False).run_full()
        assert result_digest(proved.result) == result_digest(unproved.result)
        ledger = dict(proved.resilience)
        assert ledger.pop("recertifications") == 3
        other = dict(unproved.resilience)
        assert other.pop("recertifications") == 0
        assert ledger == other

    @pytest.mark.parametrize("name", sorted(FAULTED_SCENARIOS))
    def test_pinned_ledgers_hold_no_host_time(self, name):
        """The seven pinned ledger digests stay reproducible: the ledger
        they hash has no timing field, though the controller kept one."""
        sim, _trace, controller = FAULTED_SCENARIOS[name]()
        result = sim.run()
        ledger = controller.stats.summary()
        assert "recertify_s" not in ledger and "degrade_s" not in ledger
        assert summary_digest(ledger) == PINNED[name]["ledger"]
        assert result_digest(result) == PINNED[name]["result"]
        if ledger["recertifications"]:
            assert controller.recertify_s > 0.0
        if ledger["faults_applied"]:
            assert controller.degrade_s > 0.0


class TestManifestAndReport:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifests")
        with SweepExecutor(jobs=1, manifest_dir=str(root)) as executor:
            executor.run_points([PointSpec(spec=spec())])
        (path,) = root.glob("manifest-*.json")
        return load_manifest(path)

    def test_timings_block_carries_it(self, manifest):
        timings = manifest["timings"]
        assert 0.0 < timings["recertify_s"] <= timings["wall_time_s"]
        assert 0.0 < timings["degrade_s"] <= timings["wall_time_s"]
        assert "recertify_s" not in manifest["resilience"]
        assert "degrade_s" not in manifest["resilience"]

    def test_report_prints_one_recertify_line(self, manifest):
        lines = render_manifest_report(manifest).splitlines()
        (line,) = [text for text in lines if text.startswith("recertify:")]
        assert line.startswith("recertify: 3 proofs, ")
        assert f"s + degrade {manifest['timings']['degrade_s']:.2f}s of " in line
        assert line.endswith(f" of {manifest['timings']['wall_time_s']:.2f}s")

    def test_earlier_manifests_still_load_and_render(self, manifest, tmp_path):
        old = dict(manifest)
        old["timings"] = {
            key: value for key, value in manifest["timings"].items()
            if key not in ("recertify_s", "degrade_s")
        }
        path = tmp_path / "manifest-old.json"
        path.write_text(json.dumps(old))
        loaded = load_manifest(path)
        rendered = render_manifest_report(loaded)
        assert "recertify:" not in rendered
        assert "resilience ledger" in rendered

    def test_plain_manifest_has_no_recertify_key(self):
        full = ExperimentSpec(
            topology="mesh:5x5", routing="xy", pattern="uniform", load=0.08,
            config=CONFIG, seed=3,
        ).run_full()
        manifest = build_manifest(
            RunResult(spec=full.spec, result=full.result, wall_time_s=0.1),
            git_version="test",
        )
        assert manifest["timings"] == {"wall_time_s": 0.1, "cached": False}
        assert "recertify:" not in render_manifest_report(manifest)


class TestFaultTableFooter:
    SIM = SimulationConfig(warmup_cycles=100, measure_cycles=500, drain_cycles=200)

    def test_footer_counts_proofs_and_seconds(self):
        sweep = fault_sweep("mesh:5x5", ["xy", "west-first-nonminimal"],
                            "uniform", 0.08, (0, 2, 3), config=self.SIM)
        footer = render_fault_table(sweep).splitlines()[-1]
        assert footer.startswith("recertification: 10 proofs, ")
        assert footer.endswith(" s")
        proved = sum(cell.recertify_s for cell in sweep.cells if cell.fault_count)
        total = sum(cell.wall_time_s for cell in sweep.cells)
        assert f"{proved:.2f} s of {total:.2f} s" in footer
        derived = sum(cell.degrade_s for cell in sweep.cells if cell.fault_count)
        assert footer.endswith(f"; degrade {derived:.2f} s")
        assert all(cell.recertify_s is None for cell in sweep.cells
                   if cell.fault_count == 0)
        # Host times stay out of the sweep's JSON.
        assert "recertify_s" not in sweep.to_json()
        assert "degrade_s" not in sweep.to_json()
        assert "wall_time_s" not in sweep.to_json()

    def test_fully_cached_sweep_prints_no_footer(self, tmp_path):
        for expect_footer in (True, False):
            with SweepExecutor(jobs=1, cache_dir=str(tmp_path)) as executor:
                sweep = fault_sweep("mesh:5x5", ["xy"], "uniform", 0.08, (0, 2),
                                    executor=executor, config=self.SIM)
            table = render_fault_table(sweep)
            assert ("recertification:" in table) == expect_footer
