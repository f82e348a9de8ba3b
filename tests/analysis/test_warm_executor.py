"""Warm-executor integration tests: bit-identity, pool lifecycle,
batched scheduling, and cache-dir safety under concurrent writers."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResilienceSpec,
    ResultCache,
    SweepExecutor,
)
from repro.analysis.prewarm import clear_warm_contexts, warm_context_count
from repro.obs.manifest import iter_manifests
from repro.obs.spec import ObsSpec
from repro.sim.digest import result_digest

QUICK = ConfigSpec(warmup_cycles=100, measure_cycles=400, drain_cycles=100)


@pytest.fixture(autouse=True)
def _fresh_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


def _grid_points():
    """A small mixed grid: three keys, one resilience point, one obs point."""
    points = []
    for algorithm in ("xy", "west-first", "negative-first"):
        for index, load in enumerate((0.05, 0.15)):
            points.append(
                PointSpec(
                    spec=ExperimentSpec(
                        topology="mesh:6x6",
                        routing=algorithm,
                        pattern="uniform",
                        load=load,
                        config=QUICK,
                        seed=3,
                    ),
                    series=algorithm,
                    index=index,
                )
            )
    points.append(
        PointSpec(
            spec=ExperimentSpec(
                topology="mesh:6x6",
                routing="west-first",
                pattern="uniform",
                load=0.05,
                config=QUICK,
                seed=3,
                resilience=ResilienceSpec(fault_count=1, fault_seed=5),
            ),
            series="faulted",
            index=0,
        )
    )
    points.append(
        PointSpec(
            spec=ExperimentSpec(
                topology="mesh:6x6",
                routing="xy",
                pattern="uniform",
                load=0.05,
                config=QUICK,
                seed=3,
                obs=ObsSpec(),
            ),
            series="observed",
            index=0,
        )
    )
    return points


def _digests(outcomes):
    return [result_digest(outcome.result) for outcome in outcomes]


class TestBitIdentity:
    def test_serial_parallel_cold_warm_agree(self):
        points = _grid_points()
        # The cold reference: each point on private state, no warm context.
        cold = [result_digest(point.spec.run_full().result) for point in points]
        assert warm_context_count() == 0
        with SweepExecutor(jobs=1) as warm_serial:
            warm1 = _digests(warm_serial.run_points(points))
        clear_warm_contexts()
        with SweepExecutor(jobs=2) as warm_parallel:
            warm2 = _digests(warm_parallel.run_points(points))
        assert cold == warm1 == warm2

    def test_second_run_identical_on_same_executor(self):
        points = _grid_points()
        with SweepExecutor(jobs=2) as executor:
            first = _digests(executor.run_points(points))
            second = _digests(executor.run_points(points))
        assert first == second


class TestPoolLifecycle:
    def test_pool_persists_across_runs(self):
        points = _grid_points()[:2]
        with SweepExecutor(jobs=2) as executor:
            executor.run_points(points)
            pool = executor._pool
            assert pool is not None
            executor.run_points(points)
            assert executor._pool is pool
        assert executor._pool is None

    def test_close_is_idempotent(self):
        executor = SweepExecutor(jobs=2)
        executor.close()
        executor.close()

    def test_serial_executor_never_builds_pool(self):
        with SweepExecutor(jobs=1) as executor:
            executor.run_points(_grid_points()[:2])
            assert executor._pool is None

    def test_jobs_none_resolves_to_cpu_count(self):
        with SweepExecutor(jobs=None) as executor:
            assert executor.jobs == (os.cpu_count() or 1)


class TestMetricsCounters:
    def test_warm_counters(self):
        points = _grid_points()
        with SweepExecutor(jobs=2) as executor:
            executor.run_points(points)
            metrics = executor.last_metrics
        # Every point warms, the resilience point too.
        assert any(point.spec.resilience is not None for point in points)
        assert metrics.warm_points == len(points)
        # Each of the three keys is split into min(jobs, points) chunks.
        assert metrics.batches == 6
        assert metrics.points_completed == len(points)
        assert metrics.cache_rejected == 0
        # Nothing is prebuilt in the parent: the workers fill their own
        # tables, so the dispatching process never creates a context.
        assert warm_context_count() == 0


class TestManifestExecutorBlock:
    def test_manifest_records_effective_jobs_and_warm(self, tmp_path):
        points = _grid_points()[:1]
        with SweepExecutor(jobs=2, manifest_dir=tmp_path) as executor:
            executor.run_points(points)
        manifests = iter_manifests(tmp_path)
        assert len(manifests) == 1
        assert manifests[0]["executor"] == {"jobs": 2, "cache_problem": None}

    def test_manifest_with_a_warm_flag_still_loads_and_renders(self, tmp_path, capsys):
        # Manifests written while the executor had a warm/cold switch
        # carry "warm": true in the executor block; `repro report` must
        # keep loading and rendering them.
        from repro.cli import main
        from repro.obs.manifest import load_manifest
        from repro.obs.report import render_manifest_report

        with SweepExecutor(jobs=1, manifest_dir=tmp_path / "new") as executor:
            executor.run_points(_grid_points()[-1:])
        (manifest,) = iter_manifests(tmp_path / "new")
        current = render_manifest_report(manifest)
        manifest["executor"]["warm"] = True
        path = _write_version_1(manifest, tmp_path / "old")
        assert render_manifest_report(load_manifest(path)) == current
        assert main(["report", str(path)]) == 0
        assert current in capsys.readouterr().out

    def test_manifest_written_before_the_engine_collapse_still_renders(self, tmp_path):
        # Manifests on disk from earlier versions carry core_used /
        # core_fallback_reason in the executor block; they must keep
        # loading and rendering (the keys are simply not reported).
        from repro.obs.manifest import load_manifest
        from repro.obs.report import render_manifest_report

        with SweepExecutor(jobs=1, manifest_dir=tmp_path) as executor:
            executor.run_points(_grid_points()[-1:])
        (manifest,) = iter_manifests(tmp_path)
        current = render_manifest_report(manifest)
        manifest["executor"].update(
            core_used="object",
            core_fallback_reason="an observability collector samples "
                                 "live channel states",
        )
        path = _write_version_1(manifest, tmp_path / "old")
        assert render_manifest_report(load_manifest(path)) == current
        assert "core:" not in current


def _write_version_1(manifest, root):
    """Write a loaded manifest in the version-1 layout those earlier
    executors wrote: indented, result / metrics / resilience on top."""
    from repro.obs.manifest import manifest_path

    path = manifest_path(root, manifest["spec_hash"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**manifest, "manifest_version": 1}, indent=2))
    return path


def _sweep_into_cache(cache_dir: str) -> None:
    """Run the shared 4-point grid through a cache-dir (worker entry)."""
    points = []
    for algorithm in ("xy", "negative-first"):
        for index, load in enumerate((0.05, 0.15)):
            points.append(
                PointSpec(
                    spec=ExperimentSpec(
                        topology="mesh:5x5",
                        routing=algorithm,
                        pattern="uniform",
                        load=load,
                        config=QUICK,
                        seed=9,
                    ),
                    series=algorithm,
                    index=index,
                )
            )
    with SweepExecutor(jobs=1, cache_dir=cache_dir) as executor:
        executor.run_points(points)


class TestConcurrentCacheWriters:
    def test_racing_writers_leave_clean_cache(self, tmp_path):
        """Two processes sweeping the same cache-dir concurrently must not
        corrupt entries, and a third run must be all cache hits."""
        cache_dir = tmp_path / "shared-cache"
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_sweep_into_cache, args=(str(cache_dir),))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
        assert all(worker.exitcode == 0 for worker in workers)

        # Every entry parses and loads cleanly (no torn writes).
        cache = ResultCache(cache_dir)
        assert len(cache) == 4
        points = []
        for algorithm in ("xy", "negative-first"):
            for index, load in enumerate((0.05, 0.15)):
                points.append(
                    PointSpec(
                        spec=ExperimentSpec(
                            topology="mesh:5x5",
                            routing=algorithm,
                            pattern="uniform",
                            load=load,
                            config=QUICK,
                            seed=9,
                        ),
                        series=algorithm,
                        index=index,
                    )
                )
        for point in points:
            assert cache.read_entry(point.spec) != (None, None)

        # A third run over the same grid is pure cache hits.
        with SweepExecutor(jobs=1, cache_dir=cache_dir) as executor:
            executor.run_points(points)
            assert executor.last_metrics.cache_hits == len(points)
            assert executor.last_metrics.simulated == 0

    def test_interleaved_store_is_atomic(self, tmp_path):
        """A reader never observes a partially-written cache entry even
        while another process overwrites the same key."""
        spec = ExperimentSpec(
            topology="mesh:4x4",
            routing="xy",
            pattern="uniform",
            load=0.05,
            config=QUICK,
            seed=2,
        )
        run = spec.run_full()
        cache = ResultCache(tmp_path)
        cache.store(run)
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.analysis.executor import ("
            "ConfigSpec, ExperimentSpec, ResultCache)\n"
            "quick = ConfigSpec(warmup_cycles=100, measure_cycles=400,"
            " drain_cycles=100)\n"
            "spec = ExperimentSpec(topology='mesh:4x4', routing='xy',"
            " pattern='uniform', load=0.05, config=quick, seed=2)\n"
            "cache = ResultCache({root!r})\n"
            "run = spec.run_full()\n"
            "for _ in range(20): cache.store(run)\n"
        ).format(src=str(Path(__file__).resolve().parents[2] / "src"),
                 root=str(tmp_path))
        env = dict(os.environ)
        writer = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            digest = result_digest(run.result)
            for _ in range(200):
                loaded, problem = cache.read_entry(spec)
                assert loaded is not None and problem is None
                assert result_digest(loaded.result) == digest
        finally:
            writer.wait(timeout=120)
        assert writer.returncode == 0
