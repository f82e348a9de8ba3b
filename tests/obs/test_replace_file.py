"""The one artifact writer: a file is replaced, never truncated in place.

Every file ``repro`` writes — manifests, cache entries, ``--out``
artifacts, ``save_json`` archives and traces — goes through
:func:`repro.obs.envelope.replace_file`.  These tests pin its contract
without timing anything: the old file is left intact by an interrupted
write, an open handle on it keeps reading the old bytes, the target is
gone when the temp file is renamed onto it, no temp file survives, and
the bytes written are exactly what the callers encoded.
"""

import builtins
import io
import json
import os
import re

import pytest

from repro.analysis.executor import (
    ConfigSpec,
    ExperimentSpec,
    PointSpec,
    ResultCache,
    SweepExecutor,
)
from repro.analysis.results_io import save_json
from repro.obs.envelope import replace_file, save_envelope
from repro.obs.manifest import iter_manifests, manifest_path, write_manifest
from repro.obs.spec import ObsSpec
from repro.sim.trace import TraceRecorder


def _spec(**overrides):
    fields = dict(
        topology="mesh:4x4",
        routing="west-first",
        pattern="uniform",
        load=0.1,
        config=ConfigSpec(warmup_cycles=50, measure_cycles=200, drain_cycles=100),
        seed=2,
        obs=ObsSpec(),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _leftovers(directory):
    return sorted(path.name for path in directory.glob(".*.tmp"))


@pytest.fixture
def manifest_run(tmp_path):
    """One point run with a cache and manifests: (spec, cache dir,
    manifest dir, the manifest as the executor built it)."""
    spec = _spec()
    with SweepExecutor(
        cache_dir=tmp_path / "cache", manifest_dir=tmp_path / "runs"
    ) as executor:
        executor.run_points([PointSpec(spec=spec)])
    text = manifest_path(tmp_path / "runs", spec.content_hash()).read_text()
    header = json.loads(text)
    record = json.dumps(header.pop("record"), sort_keys=True, separators=(",", ":"))
    return spec, tmp_path / "cache", tmp_path / "runs", {**header, "record": record}


class _InterruptedHandle:
    """A writing handle that stores half of what it is given, then
    raises ``KeyboardInterrupt`` as a Ctrl-C mid-write would."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise KeyboardInterrupt

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.fixture
def interrupt_writes(monkeypatch):
    """Every file opened for writing is interrupted half way through its
    first write (``Path.write_text`` and plain ``open`` alike)."""
    real_open = io.open

    def interrupting_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wxa+"):
            return _InterruptedHandle(handle)
        return handle

    monkeypatch.setattr(builtins, "open", interrupting_open)
    monkeypatch.setattr(io, "open", interrupting_open)


class TestInterruptedWrites:
    def test_interrupted_manifest_rewrite_keeps_the_old_manifest(
        self, manifest_run, request
    ):
        spec, _, runs, manifest = manifest_run
        target = manifest_path(runs, spec.content_hash())
        before = target.read_bytes()
        request.getfixturevalue("interrupt_writes")
        with pytest.raises(KeyboardInterrupt):
            write_manifest({**manifest, "created_unix": 1.0}, runs)
        assert target.read_bytes() == before
        assert _leftovers(runs) == []
        assert len(iter_manifests(runs)) == 1

    def test_interrupted_cache_store_leaves_the_entry_and_no_tmp(
        self, manifest_run, request
    ):
        spec, cache_dir, _, _ = manifest_run
        cache = ResultCache(cache_dir)
        before = cache.path_for(spec).read_bytes()
        run = spec.run_full()
        request.getfixturevalue("interrupt_writes")
        with pytest.raises(KeyboardInterrupt):
            cache.store(run)
        assert cache.path_for(spec).read_bytes() == before
        assert _leftovers(cache_dir) == []
        assert cache.read_entry(spec)[1] is None

    def test_interrupted_first_store_writes_nothing(self, tmp_path, interrupt_writes):
        spec = _spec(obs=None)
        run = spec.run_full()
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            cache.store(run)
        assert list(tmp_path.iterdir()) == []
        assert cache.read_entry(spec) == (None, None)

    def test_any_exception_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old")
        with pytest.raises(RuntimeError, match="disk full"):
            with replace_file(target) as handle:
                handle.write("new, half")
                raise RuntimeError("disk full")
        assert target.read_text() == "old"
        assert _leftovers(tmp_path) == []


def _rewrite_each(tmp_path, manifest_run):
    """label -> (path, rewrite) for every writer.  Each path already
    holds other bytes, so ``rewrite()`` replaces a live file."""
    spec, cache_dir, runs, manifest = manifest_run
    run = spec.run_full()
    recorder = TraceRecorder()
    recorder.record(1, "granted", 0, (0, 1))
    writers = {
        "manifest": (
            manifest_path(runs, spec.content_hash()),
            lambda: write_manifest({**manifest, "created_unix": 2.0}, runs),
        ),
        "cache": (
            ResultCache(cache_dir).path_for(spec),
            lambda: ResultCache(cache_dir).store(run),
        ),
        "envelope": (
            tmp_path / "out.json",
            lambda: save_envelope({"value": 2}, "bench", tmp_path / "out.json"),
        ),
        "save_json": (
            tmp_path / "result.json",
            lambda: save_json(run.result, tmp_path / "result.json"),
        ),
        "trace": (
            tmp_path / "trace.jsonl",
            lambda: recorder.to_jsonl(str(tmp_path / "trace.jsonl")),
        ),
    }
    writers["cache"][0].write_text("a stale entry")
    save_envelope({"value": 1}, "bench", tmp_path / "out.json")
    save_json({"old": True}, tmp_path / "result.json")
    (tmp_path / "trace.jsonl").write_text("old trace\n")
    return writers


WRITERS = ("manifest", "cache", "envelope", "save_json", "trace")


class TestWriterContract:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_open_handle_keeps_reading_the_old_bytes(
        self, tmp_path, manifest_run, writer
    ):
        """The old file is unlinked, not truncated: a reader that opened
        it before the rewrite still reads every old byte."""
        path, rewrite = _rewrite_each(tmp_path, manifest_run)[writer]
        old = path.read_bytes()
        with open(path, "rb") as reader:
            rewrite()
            assert reader.read() == old
        assert path.read_bytes() != old
        assert _leftovers(path.parent) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_target_is_gone_when_the_temp_file_is_renamed(
        self, tmp_path, manifest_run, writer, monkeypatch
    ):
        path, rewrite = _rewrite_each(tmp_path, manifest_run)[writer]
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append((os.path.basename(src), os.path.basename(dst), os.path.exists(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        rewrite()
        assert seen == [(f".{path.name}.{os.getpid()}.tmp", path.name, False)]

    def test_missing_target_is_fine(self, tmp_path):
        target = tmp_path / "new.txt"
        with replace_file(target) as handle:
            handle.write("fresh")
        assert target.read_text() == "fresh"
        assert _leftovers(tmp_path) == []


#: A manifest's two provenance stamps, as ``write_manifest`` encodes them.
_STAMPS = re.compile(rb'"created_unix":[0-9.]+,"git_describe":(null|"[^"]*"),')


def _unstamped(manifest_bytes):
    stripped, count = _STAMPS.subn(b"", manifest_bytes)
    assert count == 1
    return stripped


class TestBytesUnchanged:
    def test_manifest_is_the_compact_header_with_the_record_spliced_in(
        self, manifest_run
    ):
        spec, _, runs, manifest = manifest_run
        write_manifest(manifest, runs)
        document = {**manifest, "record": json.loads(manifest["record"])}
        assert manifest_path(runs, spec.content_hash()).read_bytes() == (
            json.dumps(document, separators=(",", ":")).encode("utf-8")
        )

    def test_cached_reruns_change_only_the_provenance_stamps(self, tmp_path):
        specs = [_spec(load=load) for load in (0.05, 0.1)]
        dirs = dict(cache_dir=tmp_path / "cache", manifest_dir=tmp_path / "runs")
        snapshots = []
        for _ in range(3):
            with SweepExecutor(**dirs) as executor:
                executor.run_points([PointSpec(spec=spec) for spec in specs])
            snapshots.append(
                {path.name: path.read_bytes() for path in sorted(tmp_path.rglob("*.json"))}
            )
        fresh, first, second = snapshots
        assert set(fresh) == set(first) == set(second)
        for name in fresh:
            if name.startswith("manifest-"):
                assert _unstamped(first[name]) == _unstamped(second[name])
            else:
                assert fresh[name] == first[name] == second[name]
        assert _leftovers(tmp_path / "cache") == _leftovers(tmp_path / "runs") == []


class TestSharedDirectory:
    def test_len_counts_cache_entries_not_manifests(self, tmp_path):
        spec = _spec()
        with SweepExecutor(cache_dir=tmp_path, manifest_dir=tmp_path) as executor:
            executor.run_points([PointSpec(spec=spec)])
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [f"{spec.content_hash()}.json", f"manifest-{spec.content_hash()}.json"]
        )
        assert len(ResultCache(tmp_path)) == 1
        assert len(iter_manifests(tmp_path)) == 1
