"""Tests for the warm-state layer (:mod:`repro.analysis.prewarm`)."""

import pytest

from repro.analysis.executor import ConfigSpec, ExperimentSpec
from repro.analysis.prewarm import (
    MAX_WARM_CONTEXTS,
    clear_warm_contexts,
    get_warm_context,
    peek_warm_context,
    warm_context_count,
    warm_key,
)
from repro.obs.spec import ObsSpec
from repro.routing.registry import make_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import parse_topology


@pytest.fixture(autouse=True)
def _fresh_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


class TestWarmKey:
    def test_canonicalizes_spelling(self):
        assert warm_key("Mesh:4x4", "negative_first") == (
            "mesh:4x4",
            "negative-first",
        )

    def test_context_key_matches(self):
        context = get_warm_context("mesh:4x4", "xy")
        assert context.key == ("mesh:4x4", "xy")


class TestContextCache:
    def test_same_key_returns_same_context(self):
        first = get_warm_context("mesh:4x4", "xy")
        second = get_warm_context("mesh:4x4", "XY")
        assert first is second
        assert warm_context_count() == 1

    def test_peek_does_not_create(self):
        assert peek_warm_context("mesh:4x4", "xy") is None
        get_warm_context("mesh:4x4", "xy")
        assert peek_warm_context("mesh:4x4", "xy") is not None

    def test_lru_eviction_bounds_memory(self):
        for i in range(MAX_WARM_CONTEXTS + 3):
            get_warm_context(f"mesh:{i + 2}x2", "xy")
        assert warm_context_count() == MAX_WARM_CONTEXTS
        # The oldest keys were evicted.
        assert peek_warm_context("mesh:2x2", "xy") is None

    def test_clear(self):
        get_warm_context("mesh:4x4", "xy")
        clear_warm_contexts()
        assert warm_context_count() == 0

    def test_shared_objects_are_reused(self):
        context = get_warm_context("mesh:4x4", "west-first")
        assert context.topology is get_warm_context(
            "mesh:4x4", "west-first"
        ).topology
        assert context.pattern("uniform") is context.pattern("uniform")


def _ids(compiled, channels):
    return tuple(compiled.index.cid[channel] for channel in channels)


class TestBuildRouteTable:
    """The compiled table a key's flat simulators share and fill."""

    @pytest.mark.parametrize(
        "spec,name",
        [
            ("mesh:4x4", "xy"),
            ("mesh:4x4", "west-first"),
            ("mesh:4x4", "negative-first"),
            ("mesh:4x4", "north-last"),
            ("mesh:3x3x3", "abonf"),
            ("mesh:3x3x3", "abopl"),
            ("cube:3", "e-cube"),
        ],
    )
    def test_table_matches_route(self, spec, name):
        topology = parse_topology(spec)
        routing = make_routing(name, topology)
        compiled = CompiledRoutes(routing)
        index = compiled.index
        nodes = index.nodes
        count = len(nodes)
        for node_idx, node in enumerate(nodes):
            for dest_idx, dest in enumerate(nodes):
                if node_idx == dest_idx:
                    continue
                filled = compiled.lookup(index.inj_base + node_idx, dest_idx)
                assert filled == _ids(compiled, routing.route(None, node, dest))
                assert compiled.dense[node_idx * count + dest_idx] is filled
        assert len(compiled) == count * (count - 1)

    def test_rejects_in_channel_dependent_routing(self):
        # An algorithm that reads the arrival channel gets no
        # (node, dest) table: its decisions are keyed by arrival channel.
        topology = parse_topology("mesh:4x4")
        routing = make_routing("negative-first-nonminimal", topology)
        assert routing.uses_in_channel
        compiled = CompiledRoutes(routing)
        assert compiled.dense is None
        index = compiled.index
        count = index.num_nodes
        channel = index.channels[0]
        front = index.cid[channel]
        node_idx = index.dest_node_id[front]
        dest_idx = (node_idx + 5) % count
        key = count * count + front * count + dest_idx
        filled = compiled.lookup(front, dest_idx)
        assert filled == _ids(compiled, routing.route(
            channel, index.nodes[node_idx], index.nodes[dest_idx]))
        assert compiled.bykey == {key: filled}


class TestPrewarm:
    """What a run through a warm context leaves behind for the next."""

    SPEC = ExperimentSpec(
        topology="mesh:4x4", routing="west-first", pattern="uniform",
        load=0.2, config=ConfigSpec(
            warmup_cycles=20, measure_cycles=150, drain_cycles=60),
    )

    def test_observed_and_plain_points_share_one_table(self):
        import dataclasses

        context = get_warm_context("mesh:4x4", "west-first")
        assert len(context.compiled_routes) == 0
        observed = dataclasses.replace(self.SPEC, obs=ObsSpec())
        observed.run_full(warm=context)
        filled = len(context.compiled_routes)
        assert filled > 0
        # Same traffic, so the plain twin asks nothing new.
        self.SPEC.run_full(warm=context)
        assert len(context.compiled_routes) == filled

    def test_prewarmed_source_agrees_with_routing(self):
        context = get_warm_context("mesh:4x4", "west-first")
        self.SPEC.run_full(warm=context)
        compiled = context.compiled_routes
        assert compiled.routing is context.routing
        nodes = compiled.index.nodes
        count = len(nodes)
        seen = 0
        for key, ids in enumerate(compiled.dense):
            if ids is None:
                continue
            node, dest = nodes[key // count], nodes[key % count]
            assert ids == _ids(compiled, context.routing.route(None, node, dest))
            seen += 1
        assert seen == len(compiled) > 0

    def test_compiled_routes_built_once_per_context(self):
        context = get_warm_context("mesh:4x4", "xy")
        assert context.compiled_routes is context.compiled_routes
