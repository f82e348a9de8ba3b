"""Command-line interface: ``repro``.

Subcommands::

    repro tables                        # the paper's tables and counts
    repro figure 14 --preset quick      # reproduce a performance figure
    repro simulate --topology mesh:8x8 --algorithm negative-first \\
              --pattern transpose --load 0.2
    repro sweep --topology mesh:16x16 --algorithm xy negative-first \\
              --pattern transpose --jobs 4 --cache-dir .sweep-cache
    repro resilience --preset quick     # fault-injection delivered-fraction sweep
    repro deadlock --figure 1           # watch an unsafe algorithm deadlock
    repro verify --all                  # statically certify every algorithm
    repro synth --topology mesh:4x4     # synthesize routing algorithms
    repro lint                          # determinism & invariant lint over src
    repro report runs/manifest-*.json       # metrics report from manifests
    repro list                          # available algorithms and patterns

``simulate``, ``sweep``, and ``resilience`` accept ``--obs`` to collect
bit-invisible channel/latency/timeline metrics; ``sweep`` and
``resilience`` also take ``--manifest-dir``, with which each point writes
a structured run manifest that ``report`` renders later.  Every ``--out``
JSON artifact carries the shared envelope
(``schema_version``/``tool``/``spec_hash``; see
``docs/observability.md``) except ``figure``'s, which is the bare figure
payload :func:`repro.analysis.results_io.save_json` writes.

This module is the argument-parsing shell only; programmatic users
should import from :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.routing.registry import available_algorithms, make_routing
from repro.sim.config import SimulationConfig
from repro.topology.spec import parse_topology

__all__ = ["main"]


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    which = args.which
    if which in ("all", "theorem1"):
        print("Theorem 1: minimum prohibited turns")
        print(tables.theorem1_table())
        print()
    if which in ("all", "enumeration"):
        candidates, free, unique, rendered = tables.enumeration_table()
        print("Section 3: one-turn-per-cycle prohibitions in a 2D mesh")
        print(rendered)
        print()
    if which in ("all", "adaptiveness"):
        print("Section 3.4: degree of adaptiveness (6x6 mesh)")
        print(tables.adaptiveness_table())
        print()
    if which in ("all", "pcube"):
        print("Section 5: p-cube routing example in a binary 10-cube")
        _, rendered = tables.pcube_example_table()
        print(rendered)
        print()
    if which in ("all", "pathlen"):
        print("Section 6: average minimal path lengths")
        print(tables.path_length_table())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figure13, figure14, figure15, figure16

    drivers = {13: figure13, 14: figure14, 15: figure15, 16: figure16}
    driver = drivers.get(args.number)
    if driver is None:
        print(f"no driver for figure {args.number}; choose 13-16", file=sys.stderr)
        return 2
    result = driver(
        preset=args.preset,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(result.render())
    if args.out:
        from repro.analysis.results_io import save_json

        save_json(result, args.out)
        print(f"[saved to {args.out}]")
    return 0


def _obs_spec_for_windows(warmup: int, measure: int, drain: int):
    from repro.experiments.presets import _preset_obs_spec

    return _preset_obs_spec(warmup + measure + drain)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import run

    out = run(
        topology=args.topology,
        routing=args.algorithm,
        pattern=args.pattern,
        load=args.load,
        config=SimulationConfig(
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            drain_cycles=args.drain,
            buffer_depth=args.buffer_depth,
        ),
        seed=args.seed,
        obs=(
            _obs_spec_for_windows(args.warmup, args.measure, args.drain)
            if args.obs
            else None
        ),
    )
    result = out.result
    print(result.summary())
    print(f"  avg hops:        {result.avg_hops:.2f}")
    print(f"  queue delay:     {result.avg_queue_delay_cycles:.1f} cycles")
    print(f"  injected/done:   {result.total_injected}/{result.total_delivered}")
    if out.metrics is not None:
        from repro.obs.report import render_channel_heatmap, render_timeline_table

        summary = out.metrics
        if summary["channels"] is not None:
            print()
            print(render_channel_heatmap(summary["channels"]))
        if summary["timeline"] is not None:
            print()
            print(render_timeline_table(summary["timeline"]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.executor import ProgressPrinter, SweepExecutor
    from repro.analysis.report import render_series_table
    from repro.analysis.sweep import default_loads
    from repro.analysis.results_io import sweep_run_to_dict

    if args.loads:
        loads = args.loads
    else:
        loads = default_loads(args.load_start, args.load_stop, args.load_count)
    config = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        drain_cycles=args.drain,
        buffer_depth=args.buffer_depth,
    )
    obs = (
        _obs_spec_for_windows(args.warmup, args.measure, args.drain)
        if args.obs
        else None
    )
    hooks = ProgressPrinter() if args.progress else None
    with SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        hooks=hooks,
        require_certification=args.certify,
        manifest_dir=args.manifest_dir,
    ) as executor:
        series_list = []
        for algorithm in args.algorithm:
            series = executor.sweep(
                args.topology,
                algorithm,
                args.pattern,
                loads,
                config=config,
                seed=args.seed,
                stop_after_saturation=args.stop_after_saturation,
                obs=obs,
            )
            series_list.append(series)
            print(render_series_table(series))
            print()
        effective_jobs = executor.jobs
    if args.out:
        from repro.obs.envelope import save_envelope

        payload = sweep_run_to_dict(
            series_list,
            topology=args.topology,
            pattern=args.pattern,
            loads=list(loads),
            seed=args.seed,
            jobs=effective_jobs,
        )
        save_envelope(payload, "sweep", args.out)
        print(f"[saved to {args.out}]")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.analysis.executor import ProgressPrinter, SweepExecutor
    from repro.experiments.presets import get_fault_sweep_preset
    from repro.resilience import fault_sweep, render_fault_table

    preset = get_fault_sweep_preset(args.preset)
    topology = args.topology or preset.topology()
    algorithms = args.algorithm or list(preset.algorithms)
    load = args.load if args.load is not None else preset.load
    faults = (
        tuple(args.faults) if args.faults is not None else preset.fault_counts
    )
    config = preset.sim_config(
        **{
            key: value
            for key, value in (
                ("warmup_cycles", args.warmup),
                ("measure_cycles", args.measure),
                ("drain_cycles", args.drain),
            )
            if value is not None
        }
    )
    hooks = ProgressPrinter() if args.progress else None
    obs = (
        _obs_spec_for_windows(
            config.warmup_cycles, config.measure_cycles, config.drain_cycles
        )
        if args.obs
        else None
    )
    with SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        hooks=hooks,
        manifest_dir=args.manifest_dir,
    ) as executor:
        sweep = fault_sweep(
            topology,
            algorithms,
            args.pattern,
            load,
            faults,
            config=config,
            seed=args.seed,
            fault_seed=args.fault_seed,
            policy=args.policy or preset.policy,
            heal_after=args.heal_after,
            recertify=not args.no_recertify,
            executor=executor,
            obs=obs,
        )
    print(render_fault_table(sweep))
    if args.out:
        from repro.obs.envelope import save_envelope

        save_envelope(sweep.to_dict(), "resilience", args.out)
        print(f"[saved to {args.out}]")
    return 0


def _cmd_deadlock(args: argparse.Namespace) -> int:
    from repro.sim.deadlock import run_deadlock_demo, run_figure4_demo

    if args.figure == 1:
        result = run_deadlock_demo()
        name = "unrestricted adaptive routing (Figure 1)"
    else:
        result = run_figure4_demo()
        name = "the Figure 4 faulty prohibition"
    verdict = "DEADLOCKED" if result.deadlocked else "completed (unexpected!)"
    print(f"{name}: {verdict} after delivering {result.total_delivered} packets")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.routing.registry import canonical_name
    from repro.verify import default_targets, verify_all

    if args.all or (not args.topology and not args.algorithm):
        targets = default_targets()
    else:
        algorithms = (
            [canonical_name(name) for name in args.algorithm]
            if args.algorithm
            else None
        )
        targets = default_targets(
            topologies=args.topology or None, algorithms=algorithms
        )
        if not targets:
            print(
                "no targets match the given --topology/--algorithm filters",
                file=sys.stderr,
            )
            return 2
    report = verify_all(targets)
    print(report.render())
    for target in report.targets:
        for check in target.refutations():
            rendered = (
                check.certificate.data.get("rendered")
                if check.certificate is not None
                else None
            )
            if rendered:
                print(f"\n{target.target} — {check.check} witness:")
                print(rendered)
    if args.out:
        from repro.obs.envelope import save_envelope

        save_envelope(report.to_dict(), "verify", args.out)
        print(f"[saved to {args.out}]")
    if not report.ok:
        for target in report.unexpected():
            print(
                f"UNEXPECTED: {target.target} is {target.verdict}, "
                f"expected {target.expect}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.synth import SynthSpec, render_synthesis, run_synthesis

    kwargs = dict(
        topology=args.topology,
        max_candidates=args.max_candidates,
        certify_representatives_only=not args.cross_check,
        simulate=args.simulate,
        pattern=args.pattern,
        seed=args.seed,
    )
    if args.loads:
        kwargs["loads"] = tuple(args.loads)
    try:
        spec = SynthSpec(**kwargs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    progress = (
        (lambda msg: print(msg, file=sys.stderr)) if args.progress else None
    )
    try:
        if args.simulate:
            from repro.analysis.executor import SweepExecutor

            with SweepExecutor(
                jobs=args.jobs, cache_dir=args.cache_dir
            ) as executor:
                result = run_synthesis(
                    spec, executor=executor, progress=progress
                )
        else:
            result = run_synthesis(spec, progress=progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_synthesis(result))
    if args.manifest_dir or args.out:
        from repro.obs.envelope import save_envelope

        spec_hash = spec.content_hash()
        if args.manifest_dir:
            from pathlib import Path

            directory = Path(args.manifest_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for outcome in result.outcomes:
                save_envelope(
                    outcome.to_dict(),
                    "synth-candidate",
                    directory / f"synth-{outcome.name}.json",
                    spec_hash=spec_hash,
                )
            print(
                f"[{len(result.outcomes)} candidate manifests "
                f"in {args.manifest_dir}]"
            )
        if args.out:
            save_envelope(
                result.to_payload(), "synth", args.out, spec_hash=spec_hash
            )
            print(f"[saved to {args.out}]")
    if result.missing_rediscovery is not None and not result.truncated:
        print(
            f"FAIL: full enumeration did not rediscover "
            f"{result.missing_rediscovery}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.lint import (
        all_rules,
        render_report,
        report_payload,
        run_lint,
    )

    if args.list_rules:
        for rule_id, rule in all_rules().items():
            print(f"{rule_id:20s} {rule.summary}")
        return 0
    root = Path(args.root) if args.root else None
    try:
        report = run_lint(root, rules=args.rule)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = None
    if args.format == "json" or args.out:
        from repro.obs.envelope import attach_envelope

        payload = attach_envelope(report_payload(report), "lint")
    if args.format == "json":
        assert payload is not None
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(report, verbose=args.verbose))
    if args.out:
        from repro.obs.envelope import save_envelope

        save_envelope(report_payload(report), "lint", args.out)
        print(f"[saved to {args.out}]", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.manifest import iter_manifests, load_manifest
    from repro.obs.report import (
        plot_manifest,
        render_manifest_report,
        report_payload,
    )

    manifests = [load_manifest(path) for path in args.manifest]
    if args.manifest_dir:
        manifests.extend(iter_manifests(args.manifest_dir))
    if not manifests:
        print(
            "no manifests: pass manifest JSON paths or --manifest-dir",
            file=sys.stderr,
        )
        return 2
    for index, manifest in enumerate(manifests):
        if index:
            print()
        print(
            render_manifest_report(
                manifest, top=args.top, max_rows=args.max_rows
            )
        )
    if args.plot:
        from pathlib import Path

        base = Path(args.plot)
        for index, manifest in enumerate(manifests):
            target = (
                base
                if len(manifests) == 1
                else base.with_name(f"{base.stem}-{index}{base.suffix}")
            )
            try:
                plot_manifest(manifest, target)
            except RuntimeError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            print(f"[plot saved to {target}]")
    if args.out:
        from repro.obs.envelope import save_envelope

        save_envelope(report_payload(manifests, top=args.top), "report", args.out)
        print(f"[saved to {args.out}]")
    return 0


def _cmd_loads(args: argparse.Namespace) -> int:
    from repro.analysis.channel_load import load_report
    from repro.traffic.permutations import make_pattern

    topology = parse_topology(args.topology)
    pattern = make_pattern(args.pattern, topology)
    for name in args.algorithm:
        try:
            report = load_report(topology, make_routing(name, topology), pattern)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"{name:18s} {report}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in ("mesh:8x8", "cube:6", "torus:4x2", "hex:6x6", "oct:6x6"):
        topology = parse_topology(spec)
        names = ", ".join(available_algorithms(topology))
        print(f"{spec:12s} {names}")
    from repro.traffic.permutations import available_patterns

    print("patterns: " + ", ".join(available_patterns()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turn-model adaptive routing: algorithms, proofs, simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print the paper's tables")
    p_tables.add_argument(
        "--which",
        default="all",
        choices=["all", "theorem1", "enumeration", "adaptiveness", "pcube", "pathlen"],
    )
    p_tables.set_defaults(func=_cmd_tables)

    p_fig = sub.add_parser("figure", help="reproduce a performance figure")
    p_fig.add_argument("number", type=int, help="13, 14, 15, or 16")
    p_fig.add_argument("--preset", default="quick", choices=["quick", "mid", "paper"])
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--out", default=None, help="archive the series as JSON")
    p_fig.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p_fig.add_argument(
        "--cache-dir", default=None, help="reuse cached simulation points"
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser(
        "sweep",
        help="latency-throughput sweep: algorithms x loads x one pattern",
    )
    p_sweep.add_argument("--topology", default="mesh:8x8")
    p_sweep.add_argument(
        "--algorithm",
        nargs="+",
        default=["xy", "negative-first"],
        help="one sweep series per algorithm",
    )
    p_sweep.add_argument("--pattern", default="uniform")
    p_sweep.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="explicit offered loads (flits/node/cycle)",
    )
    p_sweep.add_argument("--load-start", type=float, default=0.05)
    p_sweep.add_argument("--load-stop", type=float, default=0.6)
    p_sweep.add_argument("--load-count", type=int, default=8)
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker processes (default: one per CPU)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None, help="reuse cached simulation points"
    )
    p_sweep.add_argument("--warmup", type=int, default=2000)
    p_sweep.add_argument("--measure", type=int, default=8000)
    p_sweep.add_argument("--drain", type=int, default=3000)
    p_sweep.add_argument("--buffer-depth", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument(
        "--stop-after-saturation",
        type=int,
        default=1,
        help="unsustainable points to chart past saturation",
    )
    p_sweep.add_argument(
        "--progress", action="store_true", help="narrate per-point progress"
    )
    p_sweep.add_argument(
        "--certify",
        action="store_true",
        help="statically certify each algorithm (deadlock/livelock free, "
        "connected) before launching the sweep",
    )
    p_sweep.add_argument(
        "--obs",
        action="store_true",
        help="collect bit-invisible channel/latency/timeline metrics",
    )
    p_sweep.add_argument(
        "--manifest-dir",
        default=None,
        help="write a run manifest per point (input to 'report')",
    )
    p_sweep.add_argument("--out", default=None, help="archive the run as JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run one simulation point")
    p_sim.add_argument("--topology", default="mesh:8x8")
    p_sim.add_argument("--algorithm", default="negative-first")
    p_sim.add_argument("--pattern", default="uniform")
    p_sim.add_argument("--load", type=float, default=0.1)
    p_sim.add_argument("--warmup", type=int, default=2000)
    p_sim.add_argument("--measure", type=int, default=8000)
    p_sim.add_argument("--drain", type=int, default=3000)
    p_sim.add_argument("--buffer-depth", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument(
        "--obs",
        action="store_true",
        help="print channel-utilization heatmap and throughput timeline",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_res = sub.add_parser(
        "resilience",
        help="runtime fault-injection sweep: delivered fraction vs faults",
    )
    p_res.add_argument(
        "--preset", default="quick", choices=["quick", "mid", "paper"]
    )
    p_res.add_argument(
        "--topology", default=None, help="override the preset topology spec"
    )
    p_res.add_argument(
        "--algorithm",
        nargs="+",
        default=None,
        help="override the preset algorithm list",
    )
    p_res.add_argument("--pattern", default="uniform")
    p_res.add_argument(
        "--load", type=float, default=None, help="override the preset load"
    )
    p_res.add_argument(
        "--faults",
        type=int,
        nargs="+",
        default=None,
        help="explicit fault counts (override the preset escalation)",
    )
    p_res.add_argument(
        "--policy",
        default=None,
        help="recovery policy: drop, retransmit, or abort",
    )
    p_res.add_argument(
        "--heal-after",
        type=int,
        default=None,
        help="cycles until each fault heals (default: permanent)",
    )
    p_res.add_argument("--seed", type=int, default=1, help="workload seed")
    p_res.add_argument(
        "--fault-seed", type=int, default=1, help="fault-schedule base seed"
    )
    p_res.add_argument(
        "--no-recertify",
        action="store_true",
        help="skip certifying each degraded route table deadlock-free",
    )
    p_res.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )
    p_res.add_argument(
        "--cache-dir", default=None, help="reuse cached simulation points"
    )
    p_res.add_argument("--warmup", type=int, default=None)
    p_res.add_argument("--measure", type=int, default=None)
    p_res.add_argument("--drain", type=int, default=None)
    p_res.add_argument(
        "--progress", action="store_true", help="narrate per-point progress"
    )
    p_res.add_argument(
        "--obs",
        action="store_true",
        help="collect bit-invisible channel/latency/timeline metrics",
    )
    p_res.add_argument(
        "--manifest-dir",
        default=None,
        help="write a run manifest per point (input to 'report')",
    )
    p_res.add_argument("--out", default=None, help="archive the sweep as JSON")
    p_res.set_defaults(func=_cmd_resilience)

    p_dead = sub.add_parser("deadlock", help="demonstrate a deadlock")
    p_dead.add_argument("--figure", type=int, default=1, choices=[1, 4])
    p_dead.set_defaults(func=_cmd_deadlock)

    p_verify = sub.add_parser(
        "verify",
        help="statically certify algorithms deadlock/livelock free and connected",
    )
    p_verify.add_argument(
        "--all",
        action="store_true",
        help="full sweep: registry x topologies, faulted mesh, virtual "
        "channels, and the Figure 1/4 negative controls (the default "
        "when no filter is given)",
    )
    p_verify.add_argument(
        "--topology",
        nargs="+",
        default=None,
        help="restrict to these topology specs (e.g. mesh:5x4 cube:4)",
    )
    p_verify.add_argument(
        "--algorithm",
        nargs="+",
        default=None,
        help="restrict to these registry algorithm names",
    )
    p_verify.add_argument(
        "--out", default=None, help="write the full JSON report (certificates included)"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_synth = sub.add_parser(
        "synth",
        help="synthesize routing algorithms: enumerate turn prohibitions, "
        "certify deadlock-free survivors, rank by adaptiveness (exit 1 "
        "if a full census misses a paper algorithm)",
    )
    p_synth.add_argument(
        "--topology",
        default="mesh:4x4",
        help="target topology spec (mesh:RxC or cube:N; the colonless "
        "mesh4x4 shorthand is accepted)",
    )
    p_synth.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help="truncate enumeration after this many candidates (the "
        "census then covers a prefix of the space, not all of it)",
    )
    p_synth.add_argument(
        "--simulate",
        action="store_true",
        help="also rank certified classes by simulated sustainable "
        "throughput through the sweep executor",
    )
    p_synth.add_argument(
        "--pattern", default="uniform", help="traffic pattern for --simulate"
    )
    p_synth.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="offered loads for --simulate ranking",
    )
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --simulate (results are "
        "deterministic at any job count)",
    )
    p_synth.add_argument(
        "--cache-dir", default=None, help="reuse cached simulation points"
    )
    p_synth.add_argument(
        "--cross-check",
        action="store_true",
        help="certify every enumerated candidate instead of one "
        "representative per symmetry class, and require symmetric "
        "candidates to agree",
    )
    p_synth.add_argument(
        "--progress", action="store_true", help="narrate pipeline stages"
    )
    p_synth.add_argument(
        "--manifest-dir",
        default=None,
        help="write one enveloped manifest per symmetry class",
    )
    p_synth.add_argument(
        "--out", default=None, help="write the enveloped synthesis report JSON"
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_lint = sub.add_parser(
        "lint",
        help="determinism & invariant lint: AST static analysis of the "
        "repro sources (exit 1 on findings)",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json prints the enveloped document)",
    )
    p_lint.add_argument(
        "--rule",
        nargs="+",
        default=None,
        help="run only these rule ids (default: the full catalog)",
    )
    p_lint.add_argument(
        "--root",
        default=None,
        help="source tree to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed findings with their reasons",
    )
    p_lint.add_argument(
        "--out", default=None, help="write the report as enveloped JSON"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_report = sub.add_parser(
        "report",
        help="render channel-heatmap and timeline reports from run manifests",
    )
    p_report.add_argument(
        "manifest", nargs="*", help="manifest JSON paths (manifest-<hash>.json)"
    )
    p_report.add_argument(
        "--manifest-dir",
        default=None,
        help="render every manifest in this directory",
    )
    p_report.add_argument(
        "--top", type=int, default=8, help="hottest channels to list"
    )
    p_report.add_argument(
        "--max-rows", type=int, default=24, help="timeline rows to show"
    )
    p_report.add_argument(
        "--plot",
        default=None,
        help="also write a PNG figure (requires matplotlib)",
    )
    p_report.add_argument(
        "--out", default=None, help="write the summary as enveloped JSON"
    )
    p_report.set_defaults(func=_cmd_report)

    p_loads = sub.add_parser(
        "loads", help="static channel-load analysis (ideal saturation bounds)"
    )
    p_loads.add_argument("--topology", default="mesh:8x8")
    p_loads.add_argument("--pattern", default="transpose")
    p_loads.add_argument(
        "--algorithm",
        nargs="+",
        default=["xy", "west-first", "north-last", "negative-first"],
    )
    p_loads.set_defaults(func=_cmd_loads)

    p_list = sub.add_parser("list", help="list algorithms and patterns")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
