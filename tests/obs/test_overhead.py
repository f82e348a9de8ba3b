"""The metrics-off guarantee: a run without obs pays only `is None` checks.

Speed is measured by the repository benchmark (``bench/run.py``, see
``bench/README.md``), whose end-to-end metrics carry their own bounds.
These tests pin the cheap-hook discipline itself: with
``obs=None`` the engine must take the exact bit-identical path it took
before the subsystem existed, and must never touch a collector.
"""

import time

from repro.obs.metrics import MetricsCollector
from repro.obs.spec import ObsSpec
from repro.routing.registry import make_routing
from repro.sim.config import SimulationConfig
from repro.sim.digest import result_digest
from repro.sim.engine import WormholeSimulator
from repro.topology.mesh import Mesh2D
from repro.traffic.permutations import make_pattern
from repro.traffic.workload import SizeDistribution, Workload


def _sim(obs=None, load=0.4, side=8):
    mesh = Mesh2D(side, side)
    workload = Workload(
        pattern=make_pattern("uniform", mesh),
        sizes=SizeDistribution(((4, 0.5), (24, 0.5))),
        offered_load=load,
        seed=11,
    )
    config = SimulationConfig(
        warmup_cycles=100, measure_cycles=500, drain_cycles=200
    )
    return WormholeSimulator(
        make_routing("west-first", mesh), workload, config, obs=obs
    )


def _best_of(n, factory):
    best = float("inf")
    digest = None
    for _ in range(n):
        sim = factory()
        start = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - start)
        digest = result_digest(result)
    return best, digest


class TestMetricsOffPath:
    def test_engine_default_has_no_collector(self):
        sim = _sim()
        assert sim._obs is None

    def test_obs_off_is_not_slower_than_obs_on(self):
        # The off path does strictly less work than per-cycle sampling,
        # so (with a generous noise margin) it cannot time out above it.
        # Tighter speed bounds live in the repository benchmark.
        off_time, off_digest = _best_of(3, _sim)
        on_time, on_digest = _best_of(
            3, lambda: _sim(obs=MetricsCollector(ObsSpec(sample_every=1)))
        )
        assert off_digest == on_digest  # bit-invisible, again
        assert off_time <= on_time * 1.25 + 0.05

    def test_obs_off_never_calls_collector_hooks(self):
        calls = []

        class SpyCollector(MetricsCollector):
            def bind(self, sim):
                calls.append("bind")
                super().bind(sim)

            def on_cycle_end(self, cycle, sim):
                calls.append("cycle")
                super().on_cycle_end(cycle, sim)

        # With obs=None nothing can be called (there is no object); the
        # spy run confirms the same scenario *would* exercise the hooks,
        # i.e. the silence of the off path is the engine's doing.
        _sim().run()
        assert calls == []
        _sim(obs=SpyCollector()).run()
        assert "bind" in calls and "cycle" in calls
