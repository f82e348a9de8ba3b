"""Property-based bit-identity: the engine against its reference oracle.

The golden digests pin fixed scenarios; here the same equivalences are
checked across randomized small-mesh configurations, seeds, loads,
buffer depths, fault schedules and collectors:

* the production engine (:mod:`repro.sim.engine`, dense int ids) and
  the object-graph oracle (``tests/sim/reference_engine.py``) produce
  bit-identical runs — for the bit-parallel ``_move1`` regime and for
  the generic list mover (deeper buffers), fault-free and under drawn
  fail/heal schedules with ``drop`` / ``retransmit`` recovery (result,
  trace *and* resilience ledger), and with a collector bound, sampling
  every cycle or thinned (the obs summary dict as well);
* the generic :meth:`WormholeSimulator._move` and the capacity-1
  ``_move1`` produce bit-identical runs whenever both are valid (single
  lane, ``buffer_depth == 1``), on either implementation;
* the engine-vs-oracle families once more with 48-flit worms in the mix
  (``LONG_SIZES``): on 3x3-5x5 meshes a 2- or 9-flit packet rarely has
  flits left at the source once its header is ejecting, so only a long
  worm *streams* (the engine's cruise state) — and only then does a
  drawn fault land on one that does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsCollector
from repro.obs.spec import ObsSpec
from repro.resilience import (
    DropAndCount,
    FaultController,
    FaultSchedule,
    SourceRetransmit,
)
from repro.routing import make_routing
from repro.sim import SimulationConfig, WormholeSimulator
from repro.sim.digest import run_digest
from repro.sim.trace import TraceRecorder
from repro.topology import Mesh2D
from repro.traffic import UniformTraffic, Workload
from repro.traffic.workload import SizeDistribution

from tests.sim.reference_engine import ReferenceSimulator

ALGORITHMS = ["xy", "west-first", "north-last", "negative-first",
              "west-first-nonminimal"]

SHORT_SIZES = SizeDistribution(((2, 0.5), (9, 0.5)))
#: With a size several times the longest 5x5 path, so worms stream.
LONG_SIZES = SizeDistribution(((2, 0.4), (9, 0.3), (48, 0.3)))

configs = st.fixed_dictionaries({
    "rows": st.integers(3, 5),
    "cols": st.integers(3, 5),
    "name": st.sampled_from(ALGORITHMS),
    "load": st.sampled_from([0.05, 0.15, 0.35, 0.6]),
    "seed": st.integers(0, 2**20),
})

#: A drawn fault schedule: how many links fail, when they heal (if they
#: do) and which recovery policy picks up the casualties.  How the
#: routing degrades follows from the drawn algorithm: the nonminimal turn
#: table drops what lost reach, the others drop the failed channels.
faults = st.fixed_dictionaries({
    "count": st.integers(1, 3),
    "fault_seed": st.integers(0, 2**10),
    "heal_after": st.sampled_from([None, 40, 120]),
    "policy": st.sampled_from(["drop", "retransmit"]),
})


#: A bound collector's ``sample_every``: every cycle, and thinned so a
#: grant, fill change or release lands between two samples.
sample_every = st.sampled_from([1, 2, 3, 7])


def _controller(mesh, fault):
    # require_connected=False: on a 3x3 mesh three dead links can cut a
    # node off, which is exactly the stranded-header path to compare.
    schedule = FaultSchedule.random(
        mesh, fault["count"], seed=fault["fault_seed"], window=(40, 200),
        heal_after=fault["heal_after"], require_connected=False,
    )
    policy = (
        DropAndCount() if fault["policy"] == "drop"
        else SourceRetransmit(base_delay=4, delay_cap=16, max_attempts=3)
    )
    return FaultController(schedule, policy, recertify=False)


def _run(params, simulator_cls, *, force_generic_move=False, buffer_depth=1,
         fault=None, obs=None, sizes=SHORT_SIZES):
    """One run; returns ``(run digest, result, ledger, obs summary)``.

    ``obs`` is the ``sample_every`` of a bound collector (``None``: no
    collector)."""
    mesh = Mesh2D(params["rows"], params["cols"])
    routing = make_routing(params["name"], mesh)
    workload = Workload(
        pattern=UniformTraffic(mesh),
        sizes=sizes,
        offered_load=params["load"],
        seed=params["seed"],
    )
    config = SimulationConfig(
        warmup_cycles=40,
        measure_cycles=260,
        drain_cycles=100,
        buffer_depth=buffer_depth,
        deadlock_threshold=1_000,
    )
    trace = TraceRecorder(max_events=100_000)
    controller = _controller(mesh, fault) if fault is not None else None
    collector = (
        MetricsCollector(ObsSpec(sample_every=obs, timeline_window=32))
        if obs is not None else None
    )
    sim = simulator_cls(routing, workload, config, trace=trace,
                        resilience=controller, obs=collector)
    if force_generic_move:
        # run() picks _move1 off this flag for single-lane capacity-1
        # configs; clearing it sends the run through _move (and keeps
        # occupancy in lists, not bitmasks) where both are valid.
        sim._bitocc = False
    result = sim.run()
    return (
        run_digest(result, trace),
        result,
        controller.stats.summary() if controller is not None else None,
        collector.summary() if collector is not None else None,
    )


class TestMoverEquivalence:
    @given(params=configs)
    @settings(max_examples=25, deadline=None)
    def test_generic_move_matches_move1(self, params):
        fast, fast_result, _, _ = _run(params, WormholeSimulator)
        slow, slow_result, _, _ = _run(
            params, WormholeSimulator, force_generic_move=True
        )
        assert fast == slow
        assert fast_result.total_delivered == slow_result.total_delivered

    @given(params=configs)
    @settings(max_examples=10, deadline=None)
    def test_reference_generic_move_matches_move1(self, params):
        fast, _, _, _ = _run(params, ReferenceSimulator)
        slow, _, _, _ = _run(
            params, ReferenceSimulator, force_generic_move=True
        )
        assert fast == slow


class TestEngineMatchesReference:
    @given(params=configs)
    @settings(max_examples=25, deadline=None)
    def test_bit_mover(self, params):
        ref, ref_result, _, _ = _run(params, ReferenceSimulator)
        new, new_result, _, _ = _run(params, WormholeSimulator)
        assert ref == new
        assert ref_result.total_delivered == new_result.total_delivered

    @given(params=configs, depth=st.integers(2, 3))
    @settings(max_examples=15, deadline=None)
    def test_generic_mover(self, params, depth):
        # buffer_depth > 1 routes both implementations through their
        # generic movers (occupancy lists, not bitmasks).
        ref, _, _, _ = _run(params, ReferenceSimulator, buffer_depth=depth)
        new, _, _, _ = _run(params, WormholeSimulator, buffer_depth=depth)
        assert ref == new

    @given(params=configs, fault=faults, depth=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_under_fault_schedules(self, params, fault, depth):
        ref, _, ref_ledger, _ = _run(
            params, ReferenceSimulator, fault=fault, buffer_depth=depth
        )
        new, _, new_ledger, _ = _run(
            params, WormholeSimulator, fault=fault, buffer_depth=depth
        )
        assert ref == new
        assert ref_ledger == new_ledger

    @given(params=configs, depth=st.integers(1, 2),
           fault=st.one_of(st.none(), faults), every=sample_every)
    @settings(max_examples=25, deadline=None)
    def test_with_a_collector_bound(self, params, depth, fault, every):
        ref, _, ref_ledger, ref_summary = _run(
            params, ReferenceSimulator, obs=every, fault=fault,
            buffer_depth=depth,
        )
        new, _, new_ledger, new_summary = _run(
            params, WormholeSimulator, obs=every, fault=fault,
            buffer_depth=depth,
        )
        assert ref == new
        assert ref_ledger == new_ledger
        assert ref_summary == new_summary


class TestEngineMatchesReferenceWithStreamingWorms:
    """The bit-mover families again with worms long enough to stream for
    tens of cycles — and to be holding a channel that fails while they do."""

    @staticmethod
    def check(params, **run_kwargs):
        ref, ref_result, ref_ledger, ref_summary = _run(
            params, ReferenceSimulator, sizes=LONG_SIZES, **run_kwargs
        )
        new, new_result, new_ledger, new_summary = _run(
            params, WormholeSimulator, sizes=LONG_SIZES, **run_kwargs
        )
        assert ref == new
        assert ref_result.total_delivered == new_result.total_delivered
        assert ref_ledger == new_ledger
        assert ref_summary == new_summary

    @given(params=configs)
    @settings(max_examples=25, deadline=None)
    def test_bit_mover(self, params):
        self.check(params)

    @given(params=configs, fault=faults, depth=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_under_fault_schedules(self, params, fault, depth):
        self.check(params, fault=fault, buffer_depth=depth)

    @given(params=configs, depth=st.integers(1, 2),
           fault=st.one_of(st.none(), faults), every=sample_every)
    @settings(max_examples=25, deadline=None)
    def test_with_a_collector_bound(self, params, depth, fault, every):
        self.check(params, obs=every, fault=fault, buffer_depth=depth)
