"""Measurement harness: load sweeps, static analyses, text reports."""

from repro.analysis.channel_load import (
    ChannelLoadReport,
    channel_loads,
    load_report,
)
from repro.analysis.executor import (
    ConfigSpec,
    ExecutorHooks,
    ExecutorMetrics,
    ExperimentSpec,
    PointSpec,
    ProgressPrinter,
    ResultCache,
    SweepExecutor,
)
from repro.analysis.fault_tolerance import (
    FaultSweepPoint,
    fault_tolerance_sweep,
    routable_fraction,
)
from repro.analysis.results_io import (
    figure_from_dict,
    figure_to_dict,
    load_figure,
    result_from_dict,
    result_to_dict,
    save_json,
    series_from_dict,
    series_to_dict,
    sweep_run_from_dict,
    sweep_run_to_dict,
)
from repro.analysis.report import format_table, render_comparison, render_series_table
from repro.analysis.sweep import (
    SweepPoint,
    SweepSeries,
    default_loads,
    truncate_at_saturation,
)

__all__ = [
    "ConfigSpec",
    "ExperimentSpec",
    "PointSpec",
    "SweepExecutor",
    "ResultCache",
    "ExecutorHooks",
    "ExecutorMetrics",
    "ProgressPrinter",
    "truncate_at_saturation",
    "ChannelLoadReport",
    "channel_loads",
    "load_report",
    "FaultSweepPoint",
    "fault_tolerance_sweep",
    "routable_fraction",
    "SweepPoint",
    "SweepSeries",
    "default_loads",
    "render_series_table",
    "render_comparison",
    "format_table",
    "result_to_dict",
    "result_from_dict",
    "series_to_dict",
    "series_from_dict",
    "figure_to_dict",
    "figure_from_dict",
    "sweep_run_to_dict",
    "sweep_run_from_dict",
    "save_json",
    "load_figure",
]
