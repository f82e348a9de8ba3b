"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.api import parse_topology
from repro.cli import build_parser, main
from repro.topology import Hypercube, Mesh, Mesh2D, Torus


class TestParseTopology:
    def test_mesh_2d(self):
        topology = parse_topology("mesh:5x4")
        assert isinstance(topology, Mesh2D)
        assert topology.shape == (5, 4)

    def test_mesh_3d(self):
        topology = parse_topology("mesh:3x3x3")
        assert isinstance(topology, Mesh)
        assert topology.shape == (3, 3, 3)

    def test_cube(self):
        topology = parse_topology("cube:6")
        assert isinstance(topology, Hypercube)
        assert topology.n_dims == 6

    def test_torus(self):
        topology = parse_topology("torus:5x2")
        assert isinstance(topology, Torus)
        assert topology.shape == (5, 5)

    def test_missing_size_rejected(self):
        with pytest.raises(ValueError):
            parse_topology("mesh")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_topology("ring:8")


class TestCommands:
    def test_tables_theorem1(self, capsys):
        assert main(["tables", "--which", "theorem1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "0.25" in out

    def test_tables_pcube(self, capsys):
        assert main(["tables", "--which", "pcube"]) == 0
        out = capsys.readouterr().out
        assert "1011010100" in out
        assert "3(+2)" in out

    def test_tables_enumeration(self, capsys):
        assert main(["tables", "--which", "enumeration"]) == 0
        out = capsys.readouterr().out
        assert "12 prevent deadlock" in out

    def test_simulate_small(self, capsys):
        code = main([
            "simulate", "--topology", "mesh:4x4", "--algorithm", "xy",
            "--pattern", "uniform", "--load", "0.05",
            "--warmup", "200", "--measure", "800", "--drain", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "thru=" in out and "lat=" in out

    def test_simulate_prints_the_api_run_numbers(self, capsys):
        from repro.api import SimulationConfig, run
        from repro.cli import _obs_spec_for_windows
        from repro.obs.report import render_channel_heatmap, render_timeline_table

        assert main([
            "simulate", "--topology", "mesh:4x4", "--obs",
            "--warmup", "200", "--measure", "800", "--drain", "200",
        ]) == 0
        printed = capsys.readouterr().out
        out = run(
            topology="mesh:4x4", routing="negative-first", pattern="uniform",
            load=0.1, seed=1,
            config=SimulationConfig(
                warmup_cycles=200, measure_cycles=800, drain_cycles=200),
            obs=_obs_spec_for_windows(200, 800, 200),
        )
        assert printed.splitlines()[0] == out.result.summary()
        assert f"injected/done:   {out.result.total_injected}/" in printed
        heatmap = render_channel_heatmap(out.metrics["channels"])
        timeline = render_timeline_table(out.metrics["timeline"])
        assert "Channel utilization heatmap" in heatmap
        assert printed.endswith(f"\n\n{heatmap}\n\n{timeline}\n")

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "negative-first" in out
        assert "patterns:" in out

    def test_figure_rejects_unknown_number(self, capsys):
        assert main(["figure", "99"]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSynthCommand:
    def test_census_and_artifacts(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "synth-report.json"
        manifest_dir = tmp_path / "manifests"
        code = main([
            "synth", "--topology", "mesh4x4",
            "--out", str(out_path), "--manifest-dir", str(manifest_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "12 deadlock-free" in out
        assert "west-first" in out
        assert "north-last" in out
        assert "negative-first" in out

        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 1
        assert report["tool"] == "synth"
        assert report["spec_hash"]
        assert report["census"]["deadlock_free"] == 12
        assert report["census"]["deadlocked"] == 4
        assert report["missing_rediscovery"] is None

        manifests = sorted(manifest_dir.glob("synth-*.json"))
        assert len(manifests) == 4
        candidate = json.loads(manifests[0].read_text())
        assert candidate["tool"] == "synth-candidate"
        assert candidate["spec_hash"] == report["spec_hash"]

    def test_truncated_run_does_not_fail_rediscovery_gate(self, capsys):
        assert main(["synth", "--topology", "mesh:4x4",
                     "--max-candidates", "2"]) == 0
        assert "TRUNCATED" in capsys.readouterr().out

    def test_unsupported_topology_is_a_usage_error(self, capsys):
        assert main(["synth", "--topology", "torus:4x4"]) == 2
        assert "meshes and hypercubes" in capsys.readouterr().err

    def test_simulate_ranks_by_throughput(self, capsys):
        code = main([
            "synth", "--topology", "mesh:4x4", "--simulate",
            "--loads", "0.05",
        ])
        assert code == 0
        assert "thr=" in capsys.readouterr().out


class TestNewTopologies:
    def test_hex_spec(self):
        from repro.topology import HexMesh

        topology = parse_topology("hex:6x4")
        assert isinstance(topology, HexMesh)
        assert topology.shape == (6, 4)

    def test_hex_square_shorthand(self):
        assert parse_topology("hex:5").shape == (5, 5)

    def test_oct_spec(self):
        from repro.topology import OctMesh

        topology = parse_topology("oct:4x6")
        assert isinstance(topology, OctMesh)
        assert topology.shape == (4, 6)

    def test_simulate_on_hex(self, capsys):
        code = main([
            "simulate", "--topology", "hex:4x4",
            "--algorithm", "hex-negative-first", "--pattern", "uniform",
            "--load", "0.05", "--warmup", "200", "--measure", "800",
            "--drain", "200",
        ])
        assert code == 0
        assert "thru=" in capsys.readouterr().out


class TestSweepCommand:
    SWEEP_ARGS = [
        "sweep", "--topology", "mesh:4x4",
        "--algorithm", "xy", "negative_first",
        "--pattern", "transpose", "--loads", "0.05", "0.1",
        "--warmup", "200", "--measure", "800", "--drain", "200",
    ]

    def test_sweep_runs(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        out = capsys.readouterr().out
        assert "xy / transpose" in out
        assert "negative-first / transpose" in out

    def test_sweep_parallel_with_cache_and_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "sweep.json"
        cache_dir = tmp_path / "cache"
        args = self.SWEEP_ARGS + [
            "--jobs", "2", "--cache-dir", str(cache_dir),
            "--out", str(out_path),
        ]
        assert main(args) == 0
        first = json.loads(out_path.read_text())
        assert first["schema_version"] == 1
        assert first["tool"] == "sweep"
        assert first["kind"] == "sweep-run"
        assert [s["algorithm"] for s in first["series"]] == [
            "xy", "negative-first",
        ]
        assert len(list(cache_dir.glob("*.json"))) == 4

        # Second invocation hits the cache and reproduces the output.
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads(out_path.read_text()) == first

    def test_sweep_default_load_grid(self, capsys):
        code = main([
            "sweep", "--topology", "mesh:4x4", "--algorithm", "xy",
            "--pattern", "uniform", "--load-start", "0.05",
            "--load-stop", "0.1", "--load-count", "2",
            "--warmup", "200", "--measure", "800", "--drain", "200",
        ])
        assert code == 0
        assert "0.050" in capsys.readouterr().out


class TestLoadsCommand:
    def test_static_loads(self, capsys):
        code = main([
            "loads", "--topology", "mesh:4x4", "--pattern", "transpose",
            "--algorithm", "xy", "negative-first",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation bound" in out
        assert "xy" in out and "negative-first" in out

    def test_cyclic_relation_is_a_usage_error(self, capsys, monkeypatch):
        # No registry algorithm has a per-destination cycle, so stand one
        # in: fully adaptive nonminimal routing on the mesh.
        import repro.cli
        from repro.core.restrictions import fully_adaptive
        from repro.routing import TurnRestrictionRouting

        monkeypatch.setattr(
            repro.cli,
            "make_routing",
            lambda name, topology: TurnRestrictionRouting(
                topology, fully_adaptive(2), minimal=False
            ),
        )
        code = main([
            "loads", "--topology", "mesh:4x4", "--pattern", "transpose",
            "--algorithm", "xy",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "has a cycle through channel" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestResilienceCommand:
    def test_small_fault_sweep(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "res.json"
        code = main([
            "resilience", "--topology", "mesh:4x4",
            "--algorithm", "xy", "west-first-nonminimal",
            "--pattern", "uniform", "--load", "0.05",
            "--faults", "0", "2",
            "--warmup", "100", "--measure", "600", "--drain", "300",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered fraction" in out
        assert "west-first-nonminimal" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["tool"] == "resilience"
        assert payload["topology"] == "mesh:4x4"
        assert payload["fault_counts"] == [0, 2]
        cells = payload["cells"]
        assert {c["algorithm"] for c in cells} == {"xy", "west-first-nonminimal"}
        for cell in cells:
            if cell["fault_count"]:
                assert cell["resilience"]["recertifications"] > 0
