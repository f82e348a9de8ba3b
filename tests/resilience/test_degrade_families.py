"""Every registry algorithm of every topology family degrades, proved.

One rule degrades every routing (``repro.resilience.controller.degrade``),
so a faulted drop run of each registry algorithm on each family — meshes
in 2D and 3D, the hypercube, the torus and the hexagonal and octagonal
meshes — completes with one proof per fault event.  Re-made by name on
the degraded topology, the hex, oct and p-cube nonminimal routers could
not be built at all, and a torus router could turn cyclic.
"""

import pytest

from repro.analysis.executor import ConfigSpec, ExperimentSpec, ResilienceSpec
from repro.routing import available_algorithms
from repro.sim.config import SimulationConfig
from repro.topology import parse_topology

FAMILIES = ("mesh:4x4", "mesh:3x3x3", "cube:4", "torus:4x2", "hex:5x5", "oct:5x5")

CASES = [
    (family, name)
    for family in FAMILIES
    for name in available_algorithms(parse_topology(family))
]

CONFIG = ConfigSpec.from_config(
    SimulationConfig(warmup_cycles=100, measure_cycles=400, drain_cycles=200)
)


def test_every_family_contributes_its_nonminimal_routers():
    names = {name for _, name in CASES}
    assert {"hex-ab-order", "oct-ab-order", "p-cube-nonminimal",
            "negative-first+first-hop-wrap", "xy+first-hop-wrap",
            "negative-first-torus"} <= names


@pytest.mark.parametrize("topology, name", CASES)
def test_faulted_drop_run_is_proved_per_event(topology, name):
    spec = ExperimentSpec(
        topology=topology, routing=name, pattern="uniform", load=0.1,
        config=CONFIG,
        resilience=ResilienceSpec(fault_count=2, policy="drop"),
    )
    ledger = spec.run_full().resilience
    assert ledger["faults_applied"] == ledger["recertifications"] == 2
