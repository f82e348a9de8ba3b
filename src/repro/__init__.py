"""Reproduction of "The Turn Model for Adaptive Routing" (Glass & Ni).

The package is organized as the paper is:

* :mod:`repro.core` — the turn model itself: direction/turn algebra,
  abstract cycles, prohibited-turn restrictions, the Dally-Seitz channel
  dependency test, channel-numbering deadlock certificates, and the
  degree-of-adaptiveness formulas.
* :mod:`repro.topology` — n-dimensional meshes, k-ary n-cubes, and
  hypercubes.
* :mod:`repro.routing` — the derived routing algorithms (west-first,
  north-last, negative-first, ABONF, ABOPL, p-cube, the torus
  extensions) and the nonadaptive baselines (xy, e-cube), plus
  input/output selection policies.
* :mod:`repro.sim` — the flit-level wormhole network simulator of the
  paper's Section 6 evaluation.
* :mod:`repro.traffic` — uniform, matrix-transpose, reverse-flip, and
  other workloads.
* :mod:`repro.analysis` — load sweeps, the parallel sweep executor and
  its on-disk result cache, sustainable-throughput search, text reports.
* :mod:`repro.experiments` — one driver per paper table and figure.
* :mod:`repro.api` — the stable facade programmatic users should import
  from (:class:`~repro.analysis.executor.ExperimentSpec`,
  :class:`~repro.analysis.executor.SweepExecutor`, ``run``,
  ``parse_topology``, the registries).

Quickstart::

    from repro.api import run

    out = run(topology="mesh:8x8", routing="negative-first",
              pattern="transpose", load=0.1)
    print(out.result.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
