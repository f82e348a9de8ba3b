"""Result digests of four 256-node engine scenarios, pinned byte for byte.

A 16x16 mesh under west-first and a binary 8-cube under e-cube / p-cube,
each at a low (0.05) or saturated (0.45) uniform load, with bimodal 4/24
flit packets and a 400/2400/400-cycle window.  They run every point
through :func:`~repro.sim.engine.make_simulator`, the path the executor
takes, on networks four to sixteen times larger than the golden
scenarios'.  Together they take under a second.
"""

import pytest

from repro.routing import make_routing
from repro.sim import SimulationConfig, make_simulator
from repro.sim.digest import result_digest
from repro.topology import Hypercube, Mesh2D
from repro.traffic import SizeDistribution, Workload, make_pattern

SIZES = SizeDistribution(((4, 0.5), (24, 0.5)))
CONFIG = SimulationConfig(warmup_cycles=400, measure_cycles=2400, drain_cycles=400)

#: name -> (topology factory, routing, offered load, seed, result digest)
SCENARIOS = {
    "mesh16-west-first-low": (
        lambda: Mesh2D(16, 16), "west-first", 0.05, 101,
        "ec3e97691c505e806b8d438faabe9fc0df57f4433ec9077cae2d6705712cef49",
    ),
    "mesh16-west-first-sat": (
        lambda: Mesh2D(16, 16), "west-first", 0.45, 102,
        "465da6f6b11408bafb9ff0326a4038160502b275ef4b473a9e919cb478125831",
    ),
    "cube8-ecube-low": (
        lambda: Hypercube(8), "e-cube", 0.05, 103,
        "2dd7b4b3c5045597a8c7a2661bc991be63c2aad3af29a84884388e07a89ba08e",
    ),
    "cube8-pcube-sat": (
        lambda: Hypercube(8), "p-cube", 0.45, 104,
        "831ba71b78f50d5034ff1907a7aeb06a097fcca469f33b3707b976d04974a501",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_bench_digest(name):
    make_topology, routing, load, seed, expected = SCENARIOS[name]
    topology = make_topology()
    workload = Workload(
        pattern=make_pattern("uniform", topology),
        sizes=SIZES,
        offered_load=load,
        seed=seed,
    )
    simulator = make_simulator(make_routing(routing, topology), workload, CONFIG)
    result = simulator.run()
    assert not result.deadlocked
    assert simulator.cycle + 1 == CONFIG.total_cycles
    assert result_digest(result) == expected
