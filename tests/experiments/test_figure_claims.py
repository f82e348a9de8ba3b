"""The Section 6 verdicts, asserted on the figure drivers' quick preset.

``test_figure_shapes.py`` checks single plateau points; these tests run
each figure the way ``repro figure N --preset quick`` does (every
algorithm swept over the preset's load grid, seed 1) and assert the
orderings the paper's prose reports.  ``--preset paper`` reruns the
same drivers at the paper's 256-node scale.
"""

from repro.experiments import figure13, figure14, figure15, figure16


def test_figure13_uniform_mesh():
    """Alike at low load; near saturation xy is not beaten meaningfully,
    because dimension-order routing preserves uniform traffic's global
    evenness while adaptive choices are local and short-term."""
    result = figure13(preset="quick")
    first_load = result.series[0].points[0].offered_load
    latencies = [s.latency_at(first_load) for s in result.series]
    assert max(latencies) < 1.4 * min(latencies)
    xy = result.series_by_name()["xy"].saturation_throughput
    for series in result.series:
        assert series.saturation_throughput <= 1.25 * xy, series.algorithm


def test_figure14_transpose_mesh():
    """The partially adaptive algorithms sustain roughly twice xy's
    throughput, and negative-first (fully adaptive on every transpose
    pair) is the best in the mesh."""
    result = figure14(preset="quick")
    by_name = result.series_by_name()
    xy = by_name["xy"].saturation_throughput
    nf = by_name["negative-first"].saturation_throughput
    assert nf > 1.4 * xy, (nf, xy)
    assert result.adaptive_advantage > 1.4
    assert nf == max(s.saturation_throughput for s in result.series)


def test_figure15_transpose_cube():
    """ABONF, ABOPL and p-cube sustain roughly twice e-cube's throughput
    on the embedded transpose."""
    result = figure15(preset="quick")
    by_name = result.series_by_name()
    ecube = by_name["e-cube"].saturation_throughput
    for name in ("abonf", "abopl", "p-cube"):
        assert by_name[name].saturation_throughput > 1.4 * ecube, name


def test_figure16_reverse_flip_cube():
    """The adaptive algorithms sustain about four times e-cube's
    throughput at the paper's 8-cube; the quick preset's 6-cube shows a
    smaller but still decisive factor."""
    result = figure16(preset="quick")
    by_name = result.series_by_name()
    ecube = by_name["e-cube"].saturation_throughput
    for name in ("abonf", "abopl", "p-cube"):
        assert by_name[name].saturation_throughput > 1.5 * ecube, name
