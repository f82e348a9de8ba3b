"""Render run manifests into channel heatmaps and timeline tables.

Everything here consumes the plain-dict metric summaries produced by
:class:`~repro.obs.metrics.MetricsCollector` (usually via a manifest
from :mod:`repro.obs.manifest`, which reads schema-1 summaries into the
current column layout) — never the simulator — so ``repro
report`` can reconstruct where congestion concentrated from a manifest
file alone, long after the run.  Output is plain text by default; an
optional matplotlib path (:func:`plot_manifest`) renders the same data
graphically and degrades to a clear error when the library is absent.

The heatmap draws per-node utilization for any topology whose node
coordinates are 2-D (meshes and tori); other topologies fall back to
the hottest-channels table, which is topology-agnostic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.schedule import channel_from_label, channel_to_dict

__all__ = [
    "hottest_channels",
    "node_utilization_grid",
    "plot_manifest",
    "render_channel_heatmap",
    "render_manifest_report",
    "render_timeline_table",
    "report_payload",
]


def _format_channel(record: Dict[str, Any]) -> str:
    src = tuple(record["src"])
    dst = tuple(record["dst"])
    arrow = "~>" if record.get("wraparound") else "->"
    lane = record.get("lane", 0)
    suffix = f" lane{lane}" if lane else ""
    return f"{src}{arrow}{dst}{suffix}"


def _per_sample(value: int, samples: int) -> float:
    """A channel sum over the sample count: utilization from
    ``busy_samples``, mean occupancy from ``occupancy_sum``."""
    return value / samples if samples else 0.0


def hottest_channels(
    channels: Dict[str, Any], top: int = 8
) -> List[Dict[str, Any]]:
    """The ``top`` channels by utilization, busiest first, as records:
    ``channel`` (:func:`~repro.resilience.schedule.channel_to_dict`),
    ``busy_samples``, ``occupancy_sum``, ``utilization`` and
    ``mean_occupancy``.

    Ties on utilization break on the larger ``occupancy_sum``, then on
    column order, which is engine channel-id order, so the ordering is
    stable across runs and platforms.  Records are built for the
    returned channels only.
    """
    labels = channels.get("channel", ())
    busy = channels.get("busy_samples", ())
    occupancy = channels.get("occupancy_sum", ())
    samples = channels.get("samples", 0)
    utilization = [_per_sample(value, samples) for value in busy]

    def rank(index: int) -> Tuple[float, int]:
        return (-utilization[index], -occupancy[index])

    return [
        {
            "channel": channel_to_dict(channel_from_label(labels[index])),
            "busy_samples": busy[index],
            "occupancy_sum": occupancy[index],
            "utilization": utilization[index],
            "mean_occupancy": _per_sample(occupancy[index], samples),
        }
        for index in sorted(range(len(labels)), key=rank)[:top]
    ]


def node_utilization_grid(
    channels: Dict[str, Any],
) -> Optional[List[List[float]]]:
    """Per-node outgoing-link utilization on a 2-D coordinate grid.

    ``grid[y][x]`` is the *maximum* utilization over the channels
    leaving node ``(x, y)`` — the hotspot signal: a node is only as
    congested as its busiest output.  Returns ``None`` when any node
    coordinate is not 2-D (hypercubes, higher-dimensional meshes).
    """
    labels = channels.get("channel")
    if not labels:
        return None
    best: Dict[Tuple[int, ...], float] = {}
    max_x = 0
    max_y = 0
    samples = channels.get("samples", 0)
    for label, busy in zip(labels, channels["busy_samples"]):
        utilization = _per_sample(busy, samples)
        channel = channel_from_label(label)
        src, dst = channel.src, channel.dst
        if len(src) != 2 or len(dst) != 2:
            return None
        for x, y in (src, dst):
            max_x = max(max_x, x)
            max_y = max(max_y, y)
        if utilization > best.get(src, -1.0):
            best[src] = utilization
    return [
        [best.get((x, y), 0.0) for x in range(max_x + 1)]
        for y in range(max_y + 1)
    ]


def render_channel_heatmap(
    channels: Optional[Dict[str, Any]], top: int = 8
) -> str:
    """Text heatmap of channel utilization plus the hottest channels.

    Grid cells are integer percentages of sampled cycles the node's
    busiest outgoing channel had an owner; rows are printed north (high
    ``y``) to south so the table reads like the paper's mesh figures.
    """
    if not channels or not channels.get("channel"):
        return "channel metrics: not collected"
    lines: List[str] = []
    samples = channels.get("samples", 0)
    lines.append(
        "Channel utilization heatmap "
        f"(% busy of {samples} sampled cycles; "
        "cell = max over the node's outgoing channels)"
    )
    grid = node_utilization_grid(channels)
    if grid is not None:
        width = len(grid[0])
        for y in range(len(grid) - 1, -1, -1):
            cells = " ".join(f"{round(grid[y][x] * 100):3d}" for x in range(width))
            lines.append(f"  y={y:<2d} {cells}")
        lines.append(
            "       " + " ".join(f"{x:3d}" for x in range(width)) + "   (x)"
        )
    else:
        lines.append("  (no 2-D node grid for this topology)")
    lines.append(f"Hottest channels (top {top}):")
    for record in hottest_channels(channels, top):
        lines.append(
            f"  {_format_channel(record['channel']):<24} "
            f"util={record['utilization'] * 100:5.1f}%  "
            f"mean_occ={record['mean_occupancy']:.2f}"
        )
    return "\n".join(lines)


def render_timeline_table(
    timeline: Optional[Dict[str, Any]], max_rows: int = 24
) -> str:
    """The bucketed throughput/latency timeline as an aligned table."""
    if not timeline or not timeline.get("buckets"):
        return "timeline metrics: not collected"
    window = timeline["window"]
    buckets = timeline["buckets"]
    lines = [
        f"Timeline ({window}-cycle windows; {len(buckets)} non-empty)",
        f"  {'cycles':>13}  {'flits':>7}  {'inj':>5}  {'dlv':>5}  "
        f"{'dlv flits':>9}  {'avg lat':>8}",
    ]
    shown = buckets[:max_rows]
    for bucket in shown:
        span = f"{bucket['start']}-{bucket['end']}"
        lines.append(
            f"  {span:>13}  {bucket['flit_moves']:>7}  "
            f"{bucket['injected_packets']:>5}  "
            f"{bucket['delivered_packets']:>5}  "
            f"{bucket['delivered_flits']:>9}  "
            f"{bucket['avg_latency_cycles']:>8.1f}"
        )
    if len(buckets) > len(shown):
        lines.append(f"  ... {len(buckets) - len(shown)} more windows")
    return "\n".join(lines)


def _render_scalars(title: str, payload: Dict[str, Any]) -> List[str]:
    lines = [f"{title}:"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, float):
            lines.append(f"  {key}: {value:.4g}")
        elif isinstance(value, (int, str, bool)) or value is None:
            lines.append(f"  {key}: {value}")
    return lines


def render_manifest_report(
    manifest: Dict[str, Any], top: int = 8, max_rows: int = 24
) -> str:
    """The full text report for one run manifest.

    Sections: provenance header (spec, hash, git, timing,
    certification, engine core), headline results, the resilience ledger when
    present, then the channel heatmap and timeline when metrics were
    collected.
    """
    spec = manifest.get("spec", {})
    timings = manifest.get("timings", {})
    point = manifest.get("point", {})
    lines: List[str] = []
    lines.append(
        f"== {spec.get('topology', '?')} {spec.get('routing', '?')} "
        f"{spec.get('pattern', '?')} load={spec.get('load', '?')} "
        f"seed={spec.get('seed', '?')} =="
    )
    spec_hash = str(manifest.get("spec_hash", ""))
    lines.append(
        f"spec_hash={spec_hash[:12]}  git={manifest.get('git_describe')}  "
        f"series={point.get('series') or '-'}  index={point.get('index', 0)}"
    )
    source = "cache" if timings.get("cached") else (
        f"{timings.get('wall_time_s', 0.0):.2f}s"
    )
    certification = manifest.get("certification") or {}
    lines.append(
        f"run: {source}  certification: "
        f"required={certification.get('required', False)} "
        f"certified={certification.get('certified', False)}"
    )
    if timings.get("recertify_s") is not None:
        proofs = (manifest.get("resilience") or {}).get("recertifications", 0)
        degraded = (
            f"+ degrade {timings['degrade_s']:.2f}s "
            if timings.get("degrade_s") is not None else ""
        )
        lines.append(
            f"recertify: {proofs} proofs, {timings['recertify_s']:.2f}s "
            f"{degraded}of {timings.get('wall_time_s', 0.0):.2f}s"
        )
    if timings.get("cruise_entries") is not None:
        lines.append(
            f"cruise: {timings['cruise_entries']} worms streamed "
            f"{timings['cruise_worm_cycles']} worm-cycles in aggregate"
        )
    executor = manifest.get("executor") or {}
    if executor.get("cache_problem"):
        lines.append(
            f"cache: existing entry rejected ({executor['cache_problem']}); "
            "re-simulated and rewritten"
        )
    resilience_spec = spec.get("resilience")
    if resilience_spec:
        lines.append(
            f"faults: {resilience_spec.get('fault_count', 0)} "
            f"(seed {resilience_spec.get('fault_seed')}, "
            f"policy {resilience_spec.get('policy')})"
        )
    result = manifest.get("result") or {}
    if result:
        lines.append(
            f"result: avg_latency={result.get('avg_latency_cycles', 0.0):.1f}cyc  "
            f"delivered={result.get('total_delivered', 0)}/"
            f"{result.get('total_injected', 0)} pkts  "
            f"deadlocked={result.get('deadlocked', False)}"
        )
    resilience = manifest.get("resilience")
    if resilience:
        lines.extend(_render_scalars("resilience ledger", resilience))
    metrics = manifest.get("metrics")
    if metrics:
        counters = metrics.get("counters") or {}
        if counters:
            lines.extend(_render_scalars("counters", counters))
        latency = metrics.get("latency_cycles") or {}
        if latency.get("population"):
            lines.append(
                f"latency reservoir: n={latency['population']} "
                f"p50={latency['p50']:.1f} p90={latency['p90']:.1f} "
                f"p99={latency['p99']:.1f} max={latency['max']:.1f}"
            )
        lines.append(render_channel_heatmap(metrics.get("channels"), top=top))
        lines.append(
            render_timeline_table(metrics.get("timeline"), max_rows=max_rows)
        )
    else:
        lines.append("metrics: not collected (run with --obs or ObsSpec)")
    return "\n".join(lines)


def _sorted_keys(value: Any) -> Any:
    """``value`` with every dict's keys in sorted order."""
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value


def report_payload(
    manifests: List[Dict[str, Any]], top: int = 8
) -> Dict[str, Any]:
    """The ``repro report --out`` body: one summary entry per manifest.

    The point's numbers are emitted in sorted key order, so a manifest
    reports byte for byte the same whichever layout it was written in.
    """
    entries: List[Dict[str, Any]] = []
    for manifest in manifests:
        metrics = manifest.get("metrics") or {}
        channels = metrics.get("channels")
        entries.append(
            {
                "spec_hash": manifest.get("spec_hash"),
                "spec": manifest.get("spec"),
                "point": manifest.get("point"),
                "counters": _sorted_keys(metrics.get("counters")),
                "latency_cycles": _sorted_keys(metrics.get("latency_cycles")),
                "hottest_channels": _sorted_keys(
                    hottest_channels(channels, top) if channels else None
                ),
                "resilience": _sorted_keys(manifest.get("resilience")),
            }
        )
    return {"manifests": entries}


def plot_manifest(manifest: Dict[str, Any], out_path: str) -> str:
    """Render one manifest's heatmap and timeline with matplotlib.

    Saves a two-panel figure to ``out_path`` and returns the path.
    Raises ``RuntimeError`` when matplotlib is not installed — the text
    renderers above are the dependency-free path.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise RuntimeError(
            "matplotlib is not installed; use the text report instead"
        ) from exc

    metrics = manifest.get("metrics") or {}
    channels = metrics.get("channels") or {}
    timeline = metrics.get("timeline") or {}
    grid = node_utilization_grid(channels) if channels else None
    figure, (left, right) = plt.subplots(1, 2, figsize=(11, 4.5))
    spec = manifest.get("spec", {})
    figure.suptitle(
        f"{spec.get('topology')} {spec.get('routing')} "
        f"{spec.get('pattern')} load={spec.get('load')}"
    )
    if grid is not None:
        image = left.imshow(grid, origin="lower", cmap="viridis",
                            vmin=0.0, vmax=1.0)
        left.set_title("max outgoing-channel utilization")
        left.set_xlabel("x")
        left.set_ylabel("y")
        figure.colorbar(image, ax=left, fraction=0.046)
    else:
        left.set_title("no 2-D grid for this topology")
        left.axis("off")
    buckets = timeline.get("buckets") or []
    if buckets:
        starts = [bucket["start"] for bucket in buckets]
        right.plot(starts, [b["flit_moves"] for b in buckets],
                   label="flits moved")
        right.plot(starts, [b["delivered_flits"] for b in buckets],
                   label="flits delivered")
        right.set_title("throughput per window")
        right.set_xlabel("cycle")
        right.legend()
    else:
        right.set_title("no timeline collected")
        right.axis("off")
    figure.tight_layout()
    figure.savefig(out_path, dpi=150)
    plt.close(figure)
    return out_path
