"""Tests for the static channel-load analysis."""

import functools
import statistics

import pytest

from repro.analysis.channel_load import channel_loads, load_report
from repro.core.restrictions import fully_adaptive
from repro.routing import TurnRestrictionRouting, make_routing
from repro.routing.registry import available_algorithms
from repro.topology import Mesh2D
from repro.topology.spec import parse_topology
from repro.traffic import UniformTraffic
from repro.traffic.patterns import PermutationTraffic
from repro.traffic.permutations import make_pattern

#: ``torus:4x2`` is the 4x4 torus (k = 4, n = 2).
CONSERVATION_TOPOLOGIES = ("mesh:4x4", "cube:4", "torus:4x2", "hex:5x5", "oct:5x5")


class TestPairConservation:
    """Every unit a source injects arrives: no flow is lost on the way,
    whether or not the algorithm is minimal."""

    @pytest.mark.parametrize(
        "spec, algorithm",
        [
            (spec, name)
            for spec in CONSERVATION_TOPOLOGIES
            for name in available_algorithms(parse_topology(spec))
        ],
    )
    def test_every_pair_delivers_its_unit(self, spec, algorithm):
        topology = parse_topology(spec)
        routing = make_routing(algorithm, topology)
        # Each pair compiles the relation afresh; memoising the route
        # keeps that to the table walk.
        routing.route = functools.lru_cache(maxsize=None)(routing.route)
        nodes = list(topology.nodes())
        short = []
        for src in nodes:
            for dest in nodes:
                if src == dest:
                    continue
                pattern = PermutationTraffic(
                    topology, lambda n, s=src, d=dest: d if n == s else n, "pair"
                )
                loads = channel_loads(topology, routing, pattern)
                arrived = sum(
                    load for channel, load in loads.items() if channel.dst == dest
                )
                if arrived != pytest.approx(1.0, abs=1e-9):
                    short.append((src, dest, arrived))
        pairs = len(nodes) * (len(nodes) - 1)
        assert not short, f"{len(short)} of {pairs} pairs lose flow, e.g. {short[0]}"


class TestUndefinedFlow:
    def test_cyclic_relation_raises(self, mesh44):
        routing = TurnRestrictionRouting(mesh44, fully_adaptive(2), minimal=False)
        with pytest.raises(ValueError, match="has a cycle through channel"):
            channel_loads(mesh44, routing, UniformTraffic(mesh44))

    def test_cycle_channel_is_on_a_cycle(self, mesh44):
        routing = TurnRestrictionRouting(mesh44, fully_adaptive(2), minimal=False)
        with pytest.raises(ValueError) as raised:
            load_report(mesh44, routing, make_pattern("transpose", mesh44))
        named = str(raised.value).rsplit("channel ", 1)[1]
        channel = next(ch for ch in mesh44.channels() if str(ch) == named)
        # Follow the relation toward the named destination from the
        # channel: some walk of offered hops comes back to it.
        dest = next(
            node for node in mesh44.nodes() if f"toward {node} " in str(raised.value)
        )
        frontier, seen = [channel], set()
        while frontier:
            held = frontier.pop()
            if held.dst == dest:
                continue
            for nxt in routing.route(held, held.dst, dest):
                if nxt == channel:
                    return
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        pytest.fail(f"{channel} is not on a cycle toward {dest}")


class TestFlowConservation:
    def test_single_flow_total_equals_path_length(self, mesh44):
        # One unit from (0,0) to (3,2) spreads over channels summing to
        # the path length (every unit of flow crosses distance channels).
        pattern = PermutationTraffic(
            mesh44, lambda n: (3, 2) if n == (0, 0) else n, "single"
        )
        loads = channel_loads(mesh44, make_routing("west-first", mesh44), pattern)
        assert sum(loads.values()) == pytest.approx(5.0)

    def test_deterministic_routing_uses_one_path(self, mesh44):
        pattern = PermutationTraffic(
            mesh44, lambda n: (3, 2) if n == (0, 0) else n, "single"
        )
        loads = channel_loads(mesh44, make_routing("xy", mesh44), pattern)
        used = [ch for ch, load in loads.items() if load > 0]
        assert len(used) == 5
        assert all(load == pytest.approx(1.0) for load in loads.values())

    def test_adaptive_routing_splits(self, mesh44):
        pattern = PermutationTraffic(
            mesh44, lambda n: (2, 2) if n == (0, 0) else n, "single"
        )
        loads = channel_loads(
            mesh44, make_routing("negative-first", mesh44), pattern
        )
        first_east = mesh44.channel_in_direction((0, 0),
            mesh44.minimal_directions((0, 0), (2, 0))[0])
        assert loads[first_east] == pytest.approx(0.5)

    def test_uniform_total_flow_matches_mean_distance(self, mesh44):
        pattern = UniformTraffic(mesh44)
        loads = channel_loads(mesh44, make_routing("xy", mesh44), pattern)
        total = sum(loads.values())
        expected = pattern.mean_minimal_hops() * mesh44.num_nodes
        assert total == pytest.approx(expected, rel=1e-6)


class TestReports:
    def test_transpose_explains_figure14(self):
        # The hottest xy channel under the paper's transpose carries
        # roughly 2.4x what negative-first's hottest carries — the static
        # root of Figure 14's ~2x sustainable-throughput gap.
        mesh = Mesh2D(8, 8)
        pattern = make_pattern("transpose", mesh)
        xy = load_report(mesh, make_routing("xy", mesh), pattern)
        nf = load_report(mesh, make_routing("negative-first", mesh), pattern)
        assert xy.max_load > 2.0 * nf.max_load

    def test_uniform_explains_figure13(self):
        mesh = Mesh2D(8, 8)
        pattern = UniformTraffic(mesh)
        xy = load_report(mesh, make_routing("xy", mesh), pattern)
        nf = load_report(mesh, make_routing("negative-first", mesh), pattern)
        assert xy.max_load < nf.max_load

    def test_saturation_bound_inverse_of_max(self, mesh44):
        report = load_report(
            mesh44, make_routing("xy", mesh44), UniformTraffic(mesh44)
        )
        assert report.saturation_bound == pytest.approx(1 / report.max_load)

    def test_silent_pattern_reports_zero(self, mesh44):
        identity = PermutationTraffic(mesh44, lambda n: n, "identity")
        report = load_report(mesh44, make_routing("xy", mesh44), identity)
        assert report.max_load == 0.0
        assert report.saturation_bound == float("inf")
        assert report.active_sources == 0

    def test_str_mentions_bound(self, mesh44):
        report = load_report(
            mesh44, make_routing("xy", mesh44), UniformTraffic(mesh44)
        )
        assert "saturation bound" in str(report)


class TestBoundVsSimulation:
    def test_simulated_saturation_below_static_bound(self):
        # The ideal bound is an upper bound on what the simulator can
        # sustain (wormhole blocking costs something).
        from repro.api import SimulationConfig, run

        mesh = Mesh2D(6, 6)
        report = load_report(
            mesh, make_routing("xy", mesh), UniformTraffic(mesh)
        )
        config = SimulationConfig(
            warmup_cycles=500, measure_cycles=3000, drain_cycles=0
        )
        deep = run(topology=mesh, routing="xy", pattern="uniform",
                   load=0.95, config=config).result
        # Delivered fraction of capacity never exceeds the bound (scaled
        # by the active-source fraction, here 1).
        assert deep.throughput_fraction <= report.saturation_bound * 1.05


#: Offered load, flits per active source per cycle, of the agreement runs.
AGREEMENT_LOAD = 0.05


def _static_and_busy(spec, algorithm, pattern_name):
    """(static load, busy fraction) per network channel.

    The busy fraction is the share of all cycles the channel had an
    owner in one 50 000-cycle run of fixed 8-flit packets at
    :data:`AGREEMENT_LOAD`.
    """
    from repro.obs import MetricsCollector, ObsSpec
    from repro.sim import SimulationConfig, make_simulator
    from repro.traffic.workload import SizeDistribution, Workload

    topology = parse_topology(spec)
    routing = make_routing(algorithm, topology)
    pattern = make_pattern(pattern_name, topology)
    static = channel_loads(topology, routing, pattern)
    obs = MetricsCollector(ObsSpec())
    config = SimulationConfig(warmup_cycles=0, measure_cycles=50_000, drain_cycles=0)
    workload = Workload(
        pattern=pattern, sizes=SizeDistribution.fixed(8),
        offered_load=AGREEMENT_LOAD,
    )
    make_simulator(routing, workload, config, obs=obs).run()
    cycles = obs.summary()["counters"]["cycles_total"]
    return [
        (static.get(channel, 0.0), busy / cycles)
        for channel, busy, _ in obs.channel_records()
    ]


def _pearson(pairs):
    xs, ys = zip(*pairs)
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return cov / (var_x * var_y) ** 0.5


class TestStaticPredictsDynamic:
    """For a deterministic routing the equal-split flow is the expected
    per-channel traffic, so at low load each channel is busy for about
    ``load x static load`` of the cycles (a little more: a worm holds a
    channel while its header waits and its tail drains)."""

    @pytest.mark.parametrize("pattern_name", ["uniform", "transpose"])
    @pytest.mark.parametrize("spec, algorithm", [("mesh:8x8", "xy"), ("cube:6", "e-cube")])
    def test_deterministic_routing_agrees(self, spec, algorithm, pattern_name):
        pairs = _static_and_busy(spec, algorithm, pattern_name)
        # Exact support: a channel no flow reaches is never owned.
        assert all(busy == 0 for load, busy in pairs if load == 0)
        loaded = [(load, busy) for load, busy in pairs if load > 0]
        ratios = [busy / (AGREEMENT_LOAD * load) for load, busy in loaded]
        assert 0.95 <= statistics.median(ratios) <= 1.15
        assert 0.7 <= min(ratios) and max(ratios) <= 1.5
        if len({round(load, 9) for load, _ in loaded}) > 1:
            assert _pearson(loaded) >= 0.95

    @pytest.mark.parametrize("pattern_name", ["uniform", "transpose"])
    @pytest.mark.parametrize("algorithm", ["west-first", "negative-first"])
    def test_adaptive_departure_from_equal_split(self, algorithm, pattern_name):
        # xy output selection does not split equally, so only the
        # support is asserted; the correlation (shown by ``pytest -rP``)
        # says how far it departs.
        pairs = _static_and_busy("mesh:8x8", algorithm, pattern_name)
        assert all(busy == 0 for load, busy in pairs if load == 0)
        print(f"pearson r = {_pearson([p for p in pairs if p[0] > 0]):.3f}")
