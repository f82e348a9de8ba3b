"""Pinned numbers of the two static analyses.

EXPERIMENTS.md quotes the channel loads of ``repro loads`` and the
fault-tolerance table; both are pinned here exactly, together with a
per-algorithm load table over five topologies, so a change to how the
analyses read the routing relation cannot move a published number.
"""

import pytest

from repro.analysis.channel_load import channel_loads, load_report
from repro.analysis.fault_tolerance import fault_tolerance_sweep
from repro.core.restrictions import west_first_restriction
from repro.routing import make_routing
from repro.routing.registry import available_algorithms
from repro.topology import Mesh2D
from repro.topology.spec import parse_topology
from repro.traffic.permutations import make_pattern


class TestExperimentsNumbers:
    """The figures EXPERIMENTS.md cites, exactly."""

    def test_transpose_max_loads(self):
        mesh = Mesh2D(8, 8)
        pattern = make_pattern("transpose", mesh)
        xy = load_report(mesh, make_routing("xy", mesh), pattern)
        nf = load_report(mesh, make_routing("negative-first", mesh), pattern)
        assert xy.max_load == 7.0
        assert nf.max_load == 2.90625
        assert f"{nf.max_load:.2f}" == "2.91"

    def test_uniform_xy_max_load(self):
        mesh = Mesh2D(8, 8)
        pattern = make_pattern("uniform", mesh)
        xy = load_report(mesh, make_routing("xy", mesh), pattern)
        assert xy.max_load == pytest.approx(128 / 63, rel=1e-12)

    def test_fault_tolerance_table(self):
        # 36 nodes give 1260 ordered pairs; 8 of 120 channels failed is
        # EXPERIMENTS.md's "97% vs 88%" (1225 and 1103 of 1260).
        points = fault_tolerance_sweep(
            Mesh2D(6, 6), west_first_restriction(), [0, 2, 4, 8, 12, 20], seed=1
        )
        assert [p.failed_channels for p in points] == [0, 2, 4, 8, 12, 20]
        minimal = [round(p.minimal_fraction * 1260, 9) for p in points]
        nonminimal = [round(p.nonminimal_fraction * 1260, 9) for p in points]
        assert minimal == [1260, 1166, 1143, 1103, 1058, 797]
        assert nonminimal == [1260, 1206, 1158, 1225, 1180, 903]


TOPOLOGIES = ("mesh:4x4", "mesh:8x8", "cube:5", "hex:5x5", "oct:5x5")

#: Left out of the load table: the distance-ordered walk these numbers
#: were first taken with dropped part of their flow, so no number of
#: theirs was ever right to pin (the torus names do not apply to the
#: five topologies above; they are listed for completeness).
UNPINNED = (
    "abonf-nonminimal",
    "abopl-nonminimal",
    "negative-first-nonminimal",
    "north-last-nonminimal",
    "p-cube-nonminimal",
    "west-first-nonminimal",
    "negative-first-torus",
    "xy+first-hop-wrap",
    "negative-first+first-hop-wrap",
)

#: (topology, algorithm, pattern) -> (max load, loaded channels, sum of
#: squared loads).  The hypercube transpose needs an even dimension, so
#: ``cube:5`` is pinned under uniform traffic only.
LOAD_TABLE = {
    ("mesh:4x4", "abonf", "uniform"): (1.3666666666666667, 48, 40.598888888888894),
    ("mesh:4x4", "abonf", "transpose"): (3.0, 36, 57.8125),
    ("mesh:4x4", "abopl", "uniform"): (1.3916666666666668, 48, 40.61222222222223),
    ("mesh:4x4", "abopl", "transpose"): (3.0, 36, 57.8125),
    ("mesh:4x4", "dimension-order", "uniform"): (1.0666666666666667, 48, 38.68444444444446),
    ("mesh:4x4", "dimension-order", "transpose"): (3.0, 24, 80.0),
    ("mesh:4x4", "negative-first", "uniform"): (1.3916666666666664, 48, 42.03166666666666),
    ("mesh:4x4", "negative-first", "transpose"): (1.25, 48, 35.625),
    ("mesh:4x4", "north-last", "uniform"): (1.3916666666666668, 48, 40.61222222222223),
    ("mesh:4x4", "north-last", "transpose"): (3.0, 36, 57.8125),
    ("mesh:4x4", "west-first", "uniform"): (1.3666666666666667, 48, 40.598888888888894),
    ("mesh:4x4", "west-first", "transpose"): (3.0, 36, 57.8125),
    ("mesh:4x4", "xy", "uniform"): (1.0666666666666667, 48, 38.68444444444446),
    ("mesh:4x4", "xy", "transpose"): (3.0, 24, 80.0),
    ("mesh:4x4", "yx", "uniform"): (1.0666666666666667, 48, 38.68444444444446),
    ("mesh:4x4", "yx", "transpose"): (3.0, 24, 80.0),
    ("mesh:8x8", "abonf", "uniform"): (2.638888888888881, 224, 598.7639317146059),
    ("mesh:8x8", "abonf", "transpose"): (7.0, 168, 969.8517417907715),
    ("mesh:8x8", "abopl", "uniform"): (2.6356646825396783, 224, 599.5610842561799),
    ("mesh:8x8", "abopl", "transpose"): (7.0, 168, 969.8517417907715),
    ("mesh:8x8", "dimension-order", "uniform"): (2.0317460317460263, 224, 563.4708994708965),
    ("mesh:8x8", "dimension-order", "transpose"): (7.0, 112, 1344.0),
    ("mesh:8x8", "negative-first", "uniform"): (2.6388888888888813, 224, 619.6195855961231),
    ("mesh:8x8", "negative-first", "transpose"): (2.90625, 224, 595.703483581543),
    ("mesh:8x8", "north-last", "uniform"): (2.6356646825396783, 224, 599.5610842561799),
    ("mesh:8x8", "north-last", "transpose"): (7.0, 168, 969.8517417907715),
    ("mesh:8x8", "west-first", "uniform"): (2.638888888888881, 224, 598.7639317146059),
    ("mesh:8x8", "west-first", "transpose"): (7.0, 168, 969.8517417907715),
    ("mesh:8x8", "xy", "uniform"): (2.0317460317460263, 224, 563.4708994708965),
    ("mesh:8x8", "xy", "transpose"): (7.0, 112, 1344.0),
    ("mesh:8x8", "yx", "uniform"): (2.0317460317460263, 224, 563.4708994708959),
    ("mesh:8x8", "yx", "transpose"): (7.0, 112, 1344.0),
    ("cube:5", "abonf", "uniform"): (1.361290322580644, 160, 52.280208116545246),
    ("cube:5", "abopl", "uniform"): (1.3612903225806445, 160, 52.28020811654525),
    ("cube:5", "dimension-order", "uniform"): (0.5161290322580643, 160, 42.62226847034333),
    ("cube:5", "e-cube", "uniform"): (0.5161290322580643, 160, 42.62226847034333),
    ("cube:5", "negative-first", "uniform"): (1.3612903225806445, 160, 55.22691640652095),
    ("cube:5", "p-cube", "uniform"): (1.3612903225806445, 160, 55.22691640652095),
    ("hex:5x5", "hex-ab-order", "uniform"): (1.25, 80, 90.27777777777773),
    ("hex:5x5", "hex-ab-order", "transpose"): (4.0, 40, 200.0),
    ("hex:5x5", "hex-negative-first", "uniform"): (1.3750000000000002, 112, 57.99565972222224),
    ("hex:5x5", "hex-negative-first", "transpose"): (2.0, 32, 56.0),
    ("oct:5x5", "oct-ab-order", "uniform"): (1.25, 80, 90.27777777777773),
    ("oct:5x5", "oct-ab-order", "transpose"): (4.0, 40, 200.0),
    ("oct:5x5", "oct-negative-first", "uniform"): (1.06983024691358, 144, 31.792923873671104),
    ("oct:5x5", "oct-negative-first", "transpose"): (2.0, 32, 56.0),
}


def test_load_table_covers_the_registry():
    expected = set()
    for spec in TOPOLOGIES:
        topology = parse_topology(spec)
        patterns = ("uniform",) if spec.startswith("cube:") else ("uniform", "transpose")
        for name in available_algorithms(topology):
            if name not in UNPINNED:
                expected.update((spec, name, pattern) for pattern in patterns)
    assert set(LOAD_TABLE) == expected


@pytest.mark.parametrize("spec, algorithm, pattern_name", sorted(LOAD_TABLE))
def test_load_table(spec, algorithm, pattern_name):
    max_load, loaded_channels, square_sum = LOAD_TABLE[spec, algorithm, pattern_name]
    topology = parse_topology(spec)
    loads = channel_loads(
        topology,
        make_routing(algorithm, topology),
        make_pattern(pattern_name, topology),
    )
    loaded = [value for value in loads.values() if value > 1e-12]
    assert max(loaded) == pytest.approx(max_load, rel=1e-9)
    assert len(loaded) == loaded_channels
    assert sum(value * value for value in loaded) == pytest.approx(
        square_sum, rel=1e-9
    )
