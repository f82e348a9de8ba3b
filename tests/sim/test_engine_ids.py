"""Unit tests for the engine's compiled tables and construction API.

The bit-identity of whole runs is pinned by the golden gate
(``test_determinism.py``) and the property suite; these tests cover the
pieces in isolation — the id encoding, the shared compiled route table
and its per-simulator counters, the table swap under a fault schedule,
what ``make_simulator`` takes from a warm context, and the channel
events the obs collector accumulates.
"""

import gc

import pytest

from repro import api
from repro.core.directions import WEST
from repro.obs.metrics import MetricsCollector
from repro.obs.spec import ObsSpec
from repro.resilience import FaultController, FaultEvent, FaultSchedule
from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator, make_simulator
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.digest import result_digest
from repro.sim.ids import ChannelIndex, CompiledRoutes
from repro.topology import Mesh2D
from repro.topology.virtual import VirtualChannelTopology
from repro.traffic import UniformTraffic, Workload
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import PAPER_SIZES, SizeDistribution

from tests.sim.reference_engine import ReferenceSimulator


def _workload(mesh, load=0.1, seed=7):
    return Workload(
        pattern=UniformTraffic(mesh),
        sizes=SizeDistribution.fixed(4),
        offered_load=load,
        seed=seed,
    )


def _config(**kw):
    defaults = dict(warmup_cycles=20, measure_cycles=150, drain_cycles=60)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestChannelIndex:
    def test_layout_follows_canonical_iteration_order(self):
        mesh = Mesh2D(3, 3)
        index = ChannelIndex(mesh)
        channels = list(mesh.channels())
        nodes = list(mesh.nodes())
        assert index.num_channels == len(channels)
        assert index.num_nodes == len(nodes)
        assert index.inj_base == len(channels)
        assert index.ej_base == len(channels) + len(nodes)
        assert index.total_ids == len(channels) + 2 * len(nodes)
        for ident, channel in enumerate(channels):
            assert index.cid[channel] == ident
            assert index.channel_of[ident] is channel
            assert index.node_of[ident] == channel.dst
            assert index.dest_node_id[ident] == index.node_id[channel.dst]
            assert index.kind_of(ident) == "network"
        for pos, node in enumerate(nodes):
            inj = index.inj_base + pos
            ej = index.ej_base + pos
            assert index.kind_of(inj) == "injection"
            assert index.kind_of(ej) == "ejection"
            assert index.channel_of[inj] is None
            assert index.node_of[inj] == node
            assert index.dest_node_id[inj] == pos
            assert index.dest_node_id[ej] == pos

    def test_single_lane_mesh_is_not_multilane(self):
        index = ChannelIndex(Mesh2D(3, 3))
        assert index.multilane is False
        assert index.num_physical == index.num_channels

    def test_virtual_lanes_share_a_physical_link(self):
        vc = VirtualChannelTopology(Mesh2D(3, 3), 2)
        index = ChannelIndex(vc)
        assert index.multilane is True
        assert index.num_physical * 2 == index.num_channels
        by_phys = {}
        for ident, channel in enumerate(index.channels):
            by_phys.setdefault(index.phys_of[ident], set()).add(
                (channel.src, channel.dst)
            )
        # Every physical id groups exactly one (src, dst) pair.
        assert all(len(pairs) == 1 for pairs in by_phys.values())


class TestMakeSimulator:
    def test_one_class_whatever_the_run_needs(self):
        mesh = Mesh2D(4, 4)
        channel = next(iter(mesh.channels()))
        schedule = FaultSchedule(
            (FaultEvent(cycle=10, kind="fail", channel=channel),)
        )
        for extras in (
            {},
            {"obs": MetricsCollector(ObsSpec())},
            {"resilience": FaultController(schedule)},
            {"resilience": FaultController(FaultSchedule(()))},
        ):
            sim = make_simulator(
                make_routing("xy", mesh), _workload(mesh), _config(), **extras
            )
            assert type(sim) is WormholeSimulator

    def test_every_run_of_a_key_shares_the_warm_table(self):
        from repro.analysis.prewarm import WarmContext

        mesh = Mesh2D(4, 4)
        warm = WarmContext(
            ("mesh:4x4", "west-first"), mesh, make_routing("west-first", mesh)
        )

        def run(obs):
            sim = make_simulator(
                warm.routing, _workload(mesh, load=0.2), _config(),
                obs=obs, warm=warm,
            )
            sim.run()
            assert sim.route_cache is warm.compiled_routes
            return warm.compiled_routes.filled

        # The first run fills the shared table; a plain and an observed
        # rerun find every answer in it and fill nothing.
        filled = run(None)
        assert filled > 0
        assert run(None) == filled
        assert run(MetricsCollector(ObsSpec())) == filled


class TestRestrictedTable:
    """``CompiledRoutes.restricted``: a table read off another, minus
    per-destination ids, without asking any routing."""

    def test_entries_are_the_parent_s_minus_the_dropped_ids(self):
        mesh = Mesh2D(4, 4)
        parent = CompiledRoutes(make_routing("west-first", mesh))
        index = parent.index
        lost = frozenset(range(0, index.num_channels, 5))
        dropped = [lost if dest % 2 else frozenset() for dest in range(16)]
        derived = CompiledRoutes.restricted(parent, dropped)
        assert parent.closed
        assert derived.routing is parent.routing
        assert derived.index is index
        assert len(derived) == len(parent) > 0
        for key, entry in enumerate(parent.dense):
            got = derived.dense[key]
            if entry is None:
                assert got is None
                continue
            kept = tuple(o for o in entry if o not in dropped[key % 16])
            assert got == kept
            if kept == entry:
                assert got is entry  # shared, not copied

    def test_parent_closure_is_taken_once(self, monkeypatch):
        mesh = Mesh2D(4, 4)
        parent = CompiledRoutes(make_routing("west-first-nonminimal", mesh))
        closures = []
        original = CompiledRoutes.closure
        monkeypatch.setattr(
            CompiledRoutes, "closure",
            lambda self: closures.append(self) or original(self),
        )
        for _ in range(3):
            CompiledRoutes.restricted(parent, [frozenset()] * 16)
        assert closures == [parent]

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"])
    def test_is_restriction_checks_every_entry(self, name):
        mesh = Mesh2D(4, 4)
        parent = CompiledRoutes(make_routing(name, mesh))
        derived = CompiledRoutes.restricted(parent, [frozenset([0, 7])] * 16)
        assert derived.parent is parent and derived.is_restriction()
        assert not parent.is_restriction()  # compiled, not derived
        table = derived.dense if derived.dense is not None else derived.bykey
        keys = [key for key in (range(len(table)) if derived.dense is not None
                                else list(table)) if table[key]]
        key = keys[len(keys) // 2]
        entry = table[key]
        # One id its parent never offered for that state ...
        extra = next(o for o in range(parent.index.num_channels) if o not in entry)
        table[key] = entry + (extra,)
        assert not derived.is_restriction()
        table[key] = entry
        assert derived.is_restriction()
        if derived.bykey is not None:
            # ... or a state outside the parent's table.
            derived.bykey[-1] = ()
            assert not derived.is_restriction()

    def test_a_state_outside_the_parent_s_closure_raises(self):
        mesh = Mesh2D(4, 4)
        routing = unrestricted_adaptive_routing(mesh)
        # Its restriction is transitive, so it would compile dense; a
        # keyed table (declaring the arrival used is always safe) holds
        # per-channel states, some outside the closure.
        routing.uses_in_channel = True
        parent = CompiledRoutes(routing)
        assert parent.bykey is not None
        derived = CompiledRoutes.restricted(parent, [frozenset()] * 16)
        index = parent.index
        dest = index.node_id[(3, 3)]
        # A channel no packet bound for (3, 3) can hold under a minimal
        # routing: westward, away from it.
        outside = index.cid[mesh.channel_in_direction((1, 0), WEST)]
        assert not parent.closure().reached[dest] >> outside & 1
        # The parent answers it by asking its routing ...
        assert parent.lookup(outside, dest)
        # ... the derived table refuses instead of filling an entry.
        with pytest.raises(LookupError, match="outside the closure"):
            derived.lookup(outside, dest)

    @pytest.mark.parametrize("name", ["west-first", "west-first-nonminimal"])
    def test_a_dropped_table_is_freed_at_once(self, name):
        # The engine frees a superseded degraded table before deriving
        # the next, so two are never alive at once — unless the table
        # sits in a reference cycle and waits for the cycle collector.
        mesh = Mesh2D(4, 4)
        parent = CompiledRoutes(make_routing(name, mesh))
        parent.closure()
        gc.collect()
        gc.disable()
        try:
            derived = CompiledRoutes.restricted(parent, [frozenset([0])] * 16)
            derived.closure()
            del derived
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_dense_entry_the_closure_never_filled_raises(self):
        mesh = Mesh2D(4, 4)
        parent = CompiledRoutes(make_routing("west-first", mesh))
        derived = CompiledRoutes.restricted(parent, [frozenset()] * 16)
        unfilled = [key for key, entry in enumerate(derived.dense) if entry is None]
        # A header is never routed at its own destination.
        assert len(unfilled) == 16
        for key in unfilled:
            node, dest = divmod(key, 16)
            with pytest.raises(LookupError, match="outside the closure"):
                derived.lookup(parent.index.inj_base + node, dest)


class TestTableSwapUnderFaults:
    """A fault moves the run to a private table of the degraded routing,
    derived on the run's own ids; a full heal moves it back."""

    @staticmethod
    def _faulted(heal_after):
        mesh = Mesh2D(4, 4)
        routing = make_routing("west-first", mesh)
        compiled = CompiledRoutes(routing)
        schedule = FaultSchedule.random(
            mesh, 2, seed=5, window=(40, 80), heal_after=heal_after
        )
        controller = FaultController(schedule, recertify=False)
        sim = WormholeSimulator(
            routing, _workload(mesh, load=0.2), _config(),
            resilience=controller, compiled_routes=compiled,
        )
        sim.run()
        return sim, compiled, controller

    def test_degraded_table_is_private_and_shares_the_index(self):
        sim, compiled, controller = self._faulted(heal_after=None)
        assert controller.stats.faults_applied == 2
        table = sim.route_cache
        assert table is not compiled
        assert table is controller.current_compiled
        assert table.routing is sim.routing
        assert table.index is compiled.index
        # The shared table never saw a degraded decision: every entry in
        # it still equals the healthy algorithm's answer.
        index = compiled.index
        for key, entry in enumerate(compiled.dense):
            if entry is not None:
                node, dest = divmod(key, index.num_nodes)
                expected = sim.routing.route(
                    None, index.nodes[node], index.nodes[dest]
                )
                assert entry == tuple(index.cid[ch] for ch in expected)

    def test_full_heal_returns_to_the_original_table(self):
        sim, compiled, controller = self._faulted(heal_after=30)
        assert controller.stats.heals_applied == 2
        assert controller.current_compiled is None
        assert sim.route_cache is compiled


class TestSharedCompiledRoutes:
    def test_prewarmed_run_never_misses(self):
        mesh = Mesh2D(4, 4)
        routing = make_routing("west-first", mesh)
        compiled = CompiledRoutes(routing)

        def run():
            sim = WormholeSimulator(
                routing, _workload(mesh, load=0.2), _config(),
                compiled_routes=compiled,
            )
            digest = result_digest(sim.run())
            assert sim.route_cache is compiled
            return digest

        cold_digest = run()
        filled = compiled.filled
        assert filled > 0
        assert run() == cold_digest
        assert compiled.filled == filled

    def test_in_channel_routing_compiles_a_keyed_table(self):
        mesh = Mesh2D(4, 4)
        routing = make_routing("negative-first-nonminimal", mesh)
        assert routing.uses_in_channel
        compiled = CompiledRoutes(routing)
        assert compiled.dense is None and compiled.bykey == {}
        sim = WormholeSimulator(
            routing, _workload(mesh, load=0.2), _config(),
            compiled_routes=compiled,
        )
        sim.run()
        assert sim.route_cache is compiled
        assert len(compiled.bykey) == compiled.filled > 0

    def test_compiled_routes_of_another_routing_are_rejected(self):
        mesh = Mesh2D(4, 4)
        compiled = CompiledRoutes(make_routing("west-first", mesh))
        with pytest.raises(ValueError, match="another routing instance"):
            WormholeSimulator(
                make_routing("west-first", mesh), _workload(mesh), _config(),
                compiled_routes=compiled,
            )


class TestChannelSampling:
    """The collector's event-driven channel accumulators against the
    oracle's per-cycle walk, on runs that end with and without worms in
    flight."""

    @staticmethod
    def _run(simulator_cls, load, preload=None, **config):
        mesh = Mesh2D(4, 4)
        collector = MetricsCollector(ObsSpec(sample_every=1))
        sim = simulator_cls(
            make_routing("xy", mesh), _workload(mesh, load=load, seed=3),
            _config(**config), preload=preload, obs=collector,
        )
        sim.run()
        return sim, collector

    def test_nothing_is_held_after_a_drained_run(self):
        kwargs = dict(
            load=0.0, max_packets=0, warmup_cycles=0, drain_cycles=0,
            measure_cycles=400,
            preload=[((0, 0), (3, 3), 5, 0.0), ((2, 0), (0, 2), 3, 0.0)],
        )
        sim, collector = self._run(WormholeSimulator, **kwargs)
        _, oracle = self._run(ReferenceSimulator, **kwargs)
        assert sim.total_delivered == 2
        assert sim.occupancy_snapshot() == 0
        # Every grant was matched by a release, every fill drained.
        assert not any(collector._fill)
        records = collector.channel_records()
        assert records == oracle.channel_records()
        # The two worms cross 6 + 4 channels, each busy for some cycles.
        assert sum(1 for _, busy, _ in records if busy) == 10

    @pytest.mark.parametrize("depth", [1, 2])
    def test_run_cut_off_with_worms_in_flight(self, depth):
        # A saturated run cut off by its cycle budget leaves worms in
        # the network: their channels are settled when the clock stops,
        # to exactly the busy and occupancy sums the oracle's walk took.
        kwargs = dict(load=0.6, drain_cycles=0, buffer_depth=depth)
        sim, collector = self._run(WormholeSimulator, **kwargs)
        _, oracle = self._run(ReferenceSimulator, **kwargs)
        count = len(sim.network_channels)
        assert any(owner is not None for owner in sim._owners[:count])
        records = collector.channel_records()
        assert records == oracle.channel_records()
        assert all(
            occupancy <= depth * busy for _, busy, occupancy in records
        )
        assert sum(occupancy for _, _, occupancy in records) > 0

    @pytest.mark.parametrize("name", ["xy", "west-first", "negative-first"])
    def test_capacity_one_worms_are_compact(self, name):
        # What lets _allocate report a capacity-1 grant as filled: at the
        # end of every cycle each network channel a worm holds has a flit
        # (the header enters a granted channel in the same cycle).
        holes = []

        class CompactnessCheck(MetricsCollector):
            def on_cycle_end(self, cycle, sim):
                super().on_cycle_end(cycle, sim)
                for packet in sim._active:
                    for pos, ident in enumerate(packet.path):
                        if ident < sim._inj_base and not packet.occ_bits >> pos & 1:
                            holes.append((cycle, packet.pid, ident))

        mesh = Mesh2D(5, 5)
        workload = Workload(
            pattern=UniformTraffic(mesh),
            sizes=SizeDistribution(((2, 0.4), (9, 0.3), (48, 0.3))),
            offered_load=0.5,
            seed=11,
        )
        sim = WormholeSimulator(make_routing(name, mesh), workload, _config(),
                                obs=CompactnessCheck())
        sim.run()
        assert sim.cruise_entries > 0 and sim.flit_moves > 0
        assert holes == []


class TestRunFacade:
    def test_run_matches_a_hand_built_run(self):
        point = dict(topology="mesh:5x5", routing="west-first",
                     pattern="transpose", load=0.2, config=_config(), seed=9)
        plain = api.run(**point).result
        observed = api.run(**point, obs=True).result
        mesh = Mesh2D(5, 5)
        reference = WormholeSimulator(
            make_routing("west-first", mesh),
            Workload(
                pattern=make_pattern("transpose", mesh),
                sizes=PAPER_SIZES, offered_load=0.2, seed=9,
            ),
            _config(),
        ).run()
        assert (
            result_digest(plain) == result_digest(observed)
            == result_digest(reference)
        )
