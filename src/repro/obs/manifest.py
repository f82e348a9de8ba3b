"""Structured run manifests: one JSON document per executed point.

A manifest is the durable record of *how* a result was produced: the
full experiment spec and its content hash, the code version (``git
describe``), wall-clock timing and cache provenance, the certification
verdict the executor enforced — and the point's numbers (result,
resilience ledger, obs metrics summary).
:class:`~repro.analysis.executor.SweepExecutor` writes one per point
when constructed with ``manifest_dir=...``; ``repro report`` renders
them back into channel heatmaps and timelines without touching the
simulator.

The numbers are the point's *record*
(:func:`~repro.analysis.executor.encode_point_record`), the very bytes
a result-cache entry holds.  A manifest is a small header with those
bytes spliced in unparsed under ``record``, so writing one never
encodes the numbers a second time; :func:`load_manifest` lifts them
back to the flat ``result`` / ``metrics`` / ``resilience`` keys that
version-1 manifests carried, and both layouts read the same.  Likewise
an obs summary of ``obs_schema_version`` 1, whose channel accumulators
were one ``per_channel`` record per channel, is read into the column
layout :class:`~repro.obs.metrics.MetricsCollector` writes today.

Manifests wear the shared artifact envelope
(:mod:`repro.obs.envelope`) with ``tool == "manifest"`` and are named
``manifest-<spec-hash>.json``, so a directory of manifests is keyed
exactly like a result cache.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.envelope import attach_envelope, replace_file

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.executor import RunResult

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "git_describe",
    "load_manifest",
    "iter_manifests",
    "manifest_path",
    "write_manifest",
]

#: Version of the manifest body layout (inside the shared envelope).
#: 2 splices the point record in under ``record``; 1 kept ``result``,
#: ``metrics`` and ``resilience`` at the top level and still loads.
MANIFEST_SCHEMA_VERSION = 2


def git_describe(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The repository's ``git describe --always --dirty``, or ``None``.

    Resolved once per directory per process: the answer is stable for
    a run's lifetime, so a sweep forks git once, not once per manifest.
    Never raises: a manifest written outside a work tree (or without
    git on PATH) simply records no code version.
    """
    try:
        directory = os.path.abspath(cwd if cwd is not None else os.getcwd())
    except OSError:
        return None
    return _describe(directory)


@functools.lru_cache(maxsize=None)
def _describe(directory: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    described = proc.stdout.strip()
    return described or None


def build_manifest(
    run: "RunResult",
    *,
    certification: Optional[Dict[str, Any]] = None,
    executor: Optional[Dict[str, Any]] = None,
    git_version: Optional[str] = None,
    record: Optional[str] = None,
    spec_hash: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest document for one completed point.

    The document is the header plus ``"record"``: the point's record as
    encoded JSON text, which :func:`write_manifest` splices in unparsed.

    Args:
        run: the point's :class:`~repro.analysis.executor.RunResult`.
            Its spec, series and index head the manifest; its wall time,
            cache provenance and, when set, ``recertify_s``,
            ``degrade_s`` and the cruise counters fill ``timings``; its result, resilience
            ledger and obs metrics summary are the record.
        certification: the executor's certification verdict, e.g.
            ``{"required": True, "certified": True}``.
        executor: how the executor ran the point — ``jobs`` (the
            effective worker count, after a ``jobs=None`` request
            resolves to the CPU count) and ``cache_problem`` (why an
            existing cache entry was rejected and the point
            re-simulated, else ``None``).
        git_version: code version; defaults to :func:`git_describe`.
        record: the point's record when the caller already holds it
            encoded — the executor passes the cache entry it wrote or
            read — so it is not encoded again; encoded from ``run``
            when ``None``.
        spec_hash: the spec's content hash when the caller already
            holds it; computed when ``None``.
    """
    from repro.analysis.executor import encode_point_record

    if record is None:
        record = encode_point_record(run)
    if spec_hash is None:
        spec_hash = run.spec.content_hash()
    timings: Dict[str, Any] = {"wall_time_s": run.wall_time_s, "cached": run.cached}
    if run.recertify_s is not None:
        timings["recertify_s"] = run.recertify_s
    if run.degrade_s is not None:
        timings["degrade_s"] = run.degrade_s
    if run.cruise_entries is not None:
        timings["cruise_entries"] = run.cruise_entries
        timings["cruise_worm_cycles"] = run.cruise_worm_cycles
    body: Dict[str, Any] = {
        "manifest_version": MANIFEST_SCHEMA_VERSION,
        # repro-lint: allow[no-wallclock] manifest creation stamp: provenance metadata only, never digested or cached on
        "created_unix": round(time.time(), 3),
        "git_describe": (
            git_version if git_version is not None else git_describe()
        ),
        "point": {"series": run.series, "index": run.index},
        "spec": run.spec.to_dict(),
        "timings": timings,
        "executor": executor,
        "certification": certification,
        "record": record,
    }
    return attach_envelope(body, "manifest", spec_hash=spec_hash)


def manifest_path(root: Union[str, Path], spec_hash: str) -> Path:
    """Where the manifest for ``spec_hash`` lives under ``root``."""
    return Path(root) / f"manifest-{spec_hash}.json"


def write_manifest(
    manifest: Dict[str, Any], root: Union[str, Path]
) -> Path:
    """Persist one manifest under ``root``; returns the file path.

    The header is encoded as compact JSON and the record's text is
    spliced in after it as is, so the point's numbers are never encoded
    here.  The file is keyed by the manifest's own ``spec_hash``, so
    rewriting the same point (e.g. a cache hit on a later sweep)
    replaces its previous manifest rather than accumulating duplicates.
    The replacement goes through :func:`~repro.obs.envelope.replace_file`:
    an interrupted write leaves the previous manifest intact.
    """
    spec_hash = manifest.get("spec_hash")
    if not spec_hash:
        raise ValueError("manifest carries no spec_hash")
    record = manifest.get("record")
    if not isinstance(record, str):
        raise ValueError("manifest carries no encoded record")
    header = {key: value for key, value in manifest.items() if key != "record"}
    text = json.dumps(header, separators=(",", ":"))
    target = manifest_path(root, str(spec_hash))
    target.parent.mkdir(parents=True, exist_ok=True)
    with replace_file(target) as handle:
        handle.write(f'{text[:-1]},"record":{record}}}')
    return target


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one manifest, validating its envelope and body version.

    A version-2 record is lifted to the top-level ``result``,
    ``metrics`` and ``resilience`` keys a version-1 manifest keeps
    there, and a schema-1 obs summary is converted to the current
    columns (:func:`_channel_columns`), so every reader sees one layout.
    """
    from repro.obs.envelope import load_envelope

    manifest = load_envelope(path, expect_tool="manifest")
    version = manifest.get("manifest_version")
    if not isinstance(version, int) or version > MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported manifest_version {version!r}")
    if "record" in manifest:
        record = manifest.pop("record")
        if not isinstance(record, dict) or not isinstance(record.get("result"), dict):
            raise ValueError(f"{path}: malformed record")
        manifest["resilience"] = record.get("resilience")
        manifest["metrics"] = record.get("obs")
        manifest["result"] = record["result"]
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict) and metrics.get("obs_schema_version") == 1:
        try:
            _channel_columns(metrics)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed schema-1 channel records") from exc
    return manifest


def _channel_columns(metrics: Dict[str, Any]) -> None:
    """Convert a schema-1 obs summary in place to the current layout:
    its ``per_channel`` records become the ``channel`` /
    ``busy_samples`` / ``occupancy_sum`` columns, and the derived
    ``utilization`` / ``mean_occupancy`` floats are dropped."""
    from repro.obs.metrics import OBS_SCHEMA_VERSION
    from repro.resilience.schedule import channel_from_dict, channel_label

    channels = metrics.get("channels")
    if isinstance(channels, dict):
        records = channels.pop("per_channel", [])
        channels["channel"] = [
            channel_label(channel_from_dict(record["channel"])) for record in records
        ]
        channels["busy_samples"] = [record["busy_samples"] for record in records]
        channels["occupancy_sum"] = [record["occupancy_sum"] for record in records]
    metrics["obs_schema_version"] = OBS_SCHEMA_VERSION


def iter_manifests(root: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load every manifest under ``root``, ordered by (series, index).

    Only ``manifest-*.json`` files are read, so a directory shared with
    a result cache still reads cleanly.  A manifest file that cannot be
    read (truncated, not JSON, another tool's document, a newer layout)
    is left out with one warning naming it and the reason.
    """
    manifests: List[Dict[str, Any]] = []
    for path in sorted(Path(root).glob("manifest-*.json")):
        try:
            manifests.append(load_manifest(path))
        except (ValueError, OSError) as exc:
            warnings.warn(f"skipped unreadable manifest {path}: {exc}", stacklevel=2)
    manifests.sort(
        key=lambda m: (
            m.get("point", {}).get("series", ""),
            m.get("point", {}).get("index", 0),
        )
    )
    return manifests
