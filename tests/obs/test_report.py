"""`repro report`: rendering manifests, including the acceptance case —
a 16x16 west-first fault-sweep point reported from its manifest alone.
"""

import json
import random

import pytest

from repro.analysis.executor import SweepExecutor
from repro.cli import main
from repro.obs.report import (
    hottest_channels,
    node_utilization_grid,
    plot_manifest,
    render_channel_heatmap,
    render_timeline_table,
)
from repro.obs.spec import ObsSpec
from repro.resilience import channel_label, fault_sweep
from repro.sim.config import SimulationConfig
from repro.topology.spec import parse_topology
from tests.sim.golden_scenarios import schema_1_obs_summary


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """One obs-enabled 16x16 west-first fault-sweep point, manifested."""
    root = tmp_path_factory.mktemp("manifests")
    executor = SweepExecutor(jobs=1, manifest_dir=str(root))
    fault_sweep(
        "mesh:16x16",
        ["west-first"],
        "uniform",
        0.05,
        [4],
        config=SimulationConfig(
            warmup_cycles=200, measure_cycles=1000, drain_cycles=400
        ),
        executor=executor,
        obs=ObsSpec(timeline_window=100),
    )
    return root


class TestReportCommand:
    def test_heatmap_rendered_from_manifest_alone(self, manifest_dir, capsys):
        # The acceptance criterion: the report is produced with no access
        # to the run, only the manifest file on disk.
        paths = sorted(manifest_dir.glob("manifest-*.json"))
        assert len(paths) == 1
        assert main(["report", str(paths[0])]) == 0
        out = capsys.readouterr().out
        assert "mesh:16x16 west-first" in out
        assert "faults: 4" in out
        assert "Channel utilization heatmap" in out
        assert "y=15" in out and "y=0" in out and "(x)" in out
        assert "Hottest channels" in out
        assert "Timeline (100-cycle windows" in out
        assert "resilience ledger" in out

    def test_manifest_dir_and_out_envelope(self, manifest_dir, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["report", "--manifest-dir", str(manifest_dir),
             "--top", "3", "--out", str(out_path)]
        )
        assert code == 0
        assert "Hottest channels (top 3)" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["tool"] == "report"
        (entry,) = payload["manifests"]
        assert entry["spec"]["topology"] == "mesh:16x16"
        assert len(entry["hottest_channels"]) == 3

    def test_no_manifests_exits_two(self, capsys, tmp_path):
        assert main(["report", "--manifest-dir", str(tmp_path)]) == 2
        assert "no manifests" in capsys.readouterr().err

    def test_plot_requires_matplotlib(self, manifest_dir, capsys, tmp_path):
        try:
            import matplotlib  # noqa: F401
            has_matplotlib = True
        except ImportError:
            has_matplotlib = False
        path = next(iter(sorted(manifest_dir.glob("manifest-*.json"))))
        code = main(
            ["report", str(path), "--plot", str(tmp_path / "plot.png")]
        )
        if has_matplotlib:
            assert code == 0
            assert (tmp_path / "plot.png").exists()
        else:
            assert code == 1
            assert "matplotlib is not installed" in capsys.readouterr().err


class TestRenderHelpers:
    def test_grid_is_none_for_non_2d_topologies(self):
        channels = {
            "samples": 10,
            "channel": ["0,0,0>1,0,0+0"],
            "busy_samples": [5],
            "occupancy_sum": [5],
        }
        assert node_utilization_grid(channels) is None
        rendered = render_channel_heatmap(channels)
        assert "no 2-D node grid" in rendered
        assert "util= 50.0%" in rendered

    def test_hottest_channels_orders_by_utilization(self):
        channels = {
            "samples": 10,
            "channel": ["0,0>1,0+0", "1,0>2,0+0", "2,0>3,0+0"],
            "busy_samples": [2, 9, 2],
            "occupancy_sum": [1, 1, 5],
        }
        top = hottest_channels(channels, top=2)
        assert top[0]["utilization"] == 0.9
        assert top[1]["occupancy_sum"] == 5
        assert top[1] == {
            "channel": {"src": [2, 0], "dst": [3, 0], "dim": 0, "sign": 1,
                        "wraparound": False, "lane": 0},
            "busy_samples": 2,
            "occupancy_sum": 5,
            "utilization": 0.2,
            "mean_occupancy": 0.5,
        }

    @pytest.mark.parametrize("samples", [0, 6])
    @pytest.mark.parametrize("top", [1, 3, 8, 40])
    def test_hottest_channels_matches_a_full_sort_of_the_records(self, samples, top):
        # Few distinct sums on a torus (wraparound labels) force ties on
        # utilization and occupancy, which column order breaks.
        rng = random.Random(samples * 100 + top)
        labels = [channel_label(c) for c in parse_topology("torus:3x3").channels()]
        busy = [rng.randrange(3) if samples else 0 for _ in labels]
        occupancy = [rng.randrange(3) for _ in labels]
        channels = {"samples": samples, "sample_every": 1, "channel": labels,
                    "busy_samples": busy, "occupancy_sum": occupancy}
        records = schema_1_obs_summary({"channels": channels})["channels"]["per_channel"]
        records.sort(key=lambda r: (-r["utilization"], -r["occupancy_sum"]))
        assert hottest_channels(channels, top) == records[:top]

    def test_hottest_channels_ties_keep_column_order(self):
        # Channel-id order puts (2, 0) before (10, 0); their text
        # encodings sort the other way.
        channels = {
            "samples": 4,
            "channel": ["2,0>3,0+0", "10,0>11,0+0", "0,0>1,0+0"],
            "busy_samples": [1, 1, 1],
            "occupancy_sum": [2, 2, 2],
        }
        top = hottest_channels(channels, top=2)
        assert [record["channel"]["src"] for record in top] == [[2, 0], [10, 0]]

    def test_empty_metrics_render_placeholders(self):
        assert "not collected" in render_channel_heatmap(None)
        assert "not collected" in render_timeline_table(None)
        assert "not collected" in render_timeline_table(
            {"window": 10, "buckets": []}
        )

    def test_plot_manifest_gate_message(self, manifest_dir, tmp_path):
        try:
            import matplotlib  # noqa: F401
            pytest.skip("matplotlib installed; gate not reachable")
        except ImportError:
            pass
        manifest = json.loads(
            next(iter(sorted(manifest_dir.glob("manifest-*.json")))).read_text()
        )
        with pytest.raises(RuntimeError, match="matplotlib is not installed"):
            plot_manifest(manifest, tmp_path / "plot.png")
