"""Extension: the turn model on a hexagonal mesh (Section 7 future work).

The hexagonal network's turns are 60 and 120 degrees, yet negative-first
generalizes directly: the benchmark certifies hex-negative-first deadlock
free (both by the Dally-Seitz check and by the Theorem 5 numbering) and
measures its path-length advantage over the axis-order baseline that
ignores the diagonal channels.
"""

from benchmarks.conftest import run_once
from repro.core.numbering import certifies, negative_first_numbering
from repro.routing import HexDimensionOrderRouting, HexNegativeFirstRouting
from repro.sim import SimulationConfig, simulate
from repro.topology import HexMesh
from repro.traffic import UniformTraffic
from repro.verify import PROVED, check_deadlock_freedom


def test_bench_hex_certificates(benchmark):
    def check():
        hexm = HexMesh(6, 6)
        nf = HexNegativeFirstRouting(hexm)
        numbering = negative_first_numbering(hexm)
        return (
            check_deadlock_freedom(hexm, nf).verdict == PROVED,
            certifies(hexm, nf, numbering, "increasing"),
            check_deadlock_freedom(hexm, HexDimensionOrderRouting(hexm)).verdict == PROVED,
        )

    dally_seitz, theorem5, baseline = benchmark(check)
    print(f"\nhex NF: Dally-Seitz={dally_seitz} Theorem-5 numbering={theorem5} "
          f"ab-order={baseline}")
    assert dally_seitz and theorem5 and baseline


def test_bench_hex_uniform_traffic(benchmark):
    hexm = HexMesh(6, 6)
    config = SimulationConfig(
        warmup_cycles=800, measure_cycles=4000, drain_cycles=1500
    )

    def run():
        nf = simulate(
            hexm, HexNegativeFirstRouting(hexm), UniformTraffic(hexm), 0.12,
            config=config,
        )
        ab = simulate(
            hexm, HexDimensionOrderRouting(hexm), UniformTraffic(hexm), 0.12,
            config=config,
        )
        return nf, ab

    nf, ab = run_once(benchmark, run)
    print(f"\nhex-negative-first: {nf.summary()} hops={nf.avg_hops:.2f}")
    print(f"hex-ab-order:       {ab.summary()} hops={ab.avg_hops:.2f}")
    assert not nf.deadlocked and not ab.deadlocked
    # The diagonal channels shorten negative-first's paths.
    assert nf.avg_hops < ab.avg_hops
    benchmark.extra_info["hops"] = {
        "hex-nf": round(nf.avg_hops, 2), "hex-ab": round(ab.avg_hops, 2)
    }


def test_bench_octagonal_certificates(benchmark):
    """The octagonal companion: negative-first over the phi potential."""
    from repro.core.numbering import potential_numbering
    from repro.routing import OctDimensionOrderRouting, OctNegativeFirstRouting
    from repro.topology import OctMesh

    def check():
        octm = OctMesh(6, 6)
        nf = OctNegativeFirstRouting(octm)
        numbering = potential_numbering(octm, octm.potential)
        return (
            check_deadlock_freedom(octm, nf).verdict == PROVED,
            certifies(octm, nf, numbering, "increasing"),
            check_deadlock_freedom(octm, OctDimensionOrderRouting(octm)).verdict == PROVED,
        )

    dally_seitz, phi_numbering, baseline = benchmark(check)
    print(f"\noct NF: Dally-Seitz={dally_seitz} phi numbering={phi_numbering} "
          f"ab-order={baseline}")
    assert dally_seitz and phi_numbering and baseline
