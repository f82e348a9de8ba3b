"""Scale presets for the Section 6 experiments.

The paper simulates a 16x16 mesh and a binary 8-cube (256 nodes each).
Running those at full fidelity in pure Python takes minutes per data
point, so every experiment driver accepts a preset:

* ``paper`` — the paper's topologies with long warmup/measurement windows;
  used to produce the numbers recorded in EXPERIMENTS.md.
* ``mid`` — the paper's topologies with shorter windows.
* ``quick`` — 8x8 mesh / 6-cube with short windows; the default, and
  what the test suite and CI run.  The qualitative shapes (who wins, and by
  roughly what factor) match the paper at every preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.obs.spec import ObsSpec
from repro.sim.config import SimulationConfig
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D

__all__ = [
    "Preset",
    "PRESETS",
    "get_preset",
    "FaultSweepPreset",
    "FAULT_SWEEP_PRESETS",
    "get_fault_sweep_preset",
]


@dataclass(frozen=True)
class Preset:
    """One experiment scale.

    Attributes:
        name: preset identifier.
        mesh_side: the 2D mesh is ``mesh_side x mesh_side``.
        cube_dims: hypercube dimensionality.
        warmup_cycles, measure_cycles, drain_cycles: simulator windows.
        loads_mesh_uniform, ...: offered-load grids per experiment, in
            flits/node/cycle, chosen to bracket each configuration's
            saturation point.
    """

    name: str
    mesh_side: int
    cube_dims: int
    warmup_cycles: int
    measure_cycles: int
    drain_cycles: int
    loads_mesh_uniform: tuple
    loads_mesh_transpose: tuple
    loads_cube_uniform: tuple
    loads_cube_transpose: tuple
    loads_cube_reverse_flip: tuple

    def mesh(self) -> Mesh2D:
        return Mesh2D(self.mesh_side, self.mesh_side)

    def cube(self) -> Hypercube:
        return Hypercube(self.cube_dims)

    def sim_config(self, **overrides) -> SimulationConfig:
        settings = dict(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain_cycles=self.drain_cycles,
        )
        settings.update(overrides)
        return SimulationConfig(**settings)

    def obs_spec(self) -> ObsSpec:
        """Observability knobs scaled to this preset's windows."""
        return _preset_obs_spec(
            self.warmup_cycles + self.measure_cycles + self.drain_cycles
        )


def _preset_obs_spec(total_cycles: int) -> ObsSpec:
    """An :class:`ObsSpec` scaled to one preset's window lengths.

    The timeline is bucketed to roughly 50 windows regardless of scale,
    and channel sampling thins out to every fourth cycle on long runs
    (paper-scale windows), which leaves the heatmap's shape unchanged.
    Thinning no longer saves collection time — channel accounting costs
    per grant, fill change and release, not per sampled cycle — but the
    value is kept because it is part of every preset's spec hash, so
    changing it would orphan every cached and manifested preset point.
    """
    return ObsSpec(
        sample_every=1 if total_cycles <= 10_000 else 4,
        timeline_window=max(1, total_cycles // 50),
    )


def _grid(*loads: float) -> tuple:
    return tuple(loads)


PRESETS = {
    "quick": Preset(
        name="quick",
        mesh_side=8,
        cube_dims=6,
        warmup_cycles=1_500,
        measure_cycles=6_000,
        drain_cycles=2_500,
        loads_mesh_uniform=_grid(0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.55),
        loads_mesh_transpose=_grid(0.04, 0.08, 0.12, 0.16, 0.22, 0.30, 0.40),
        loads_cube_uniform=_grid(0.10, 0.20, 0.30, 0.45, 0.60, 0.80),
        loads_cube_transpose=_grid(0.05, 0.10, 0.16, 0.24, 0.34, 0.50, 0.70),
        loads_cube_reverse_flip=_grid(0.05, 0.12, 0.20, 0.30, 0.45, 0.65, 0.90),
    ),
    "mid": Preset(
        name="mid",
        mesh_side=16,
        cube_dims=8,
        warmup_cycles=3_000,
        measure_cycles=10_000,
        drain_cycles=4_000,
        loads_mesh_uniform=_grid(0.04, 0.08, 0.12, 0.16, 0.22, 0.30, 0.40),
        loads_mesh_transpose=_grid(0.03, 0.06, 0.09, 0.13, 0.18, 0.25, 0.34),
        loads_cube_uniform=_grid(0.10, 0.20, 0.30, 0.45, 0.60, 0.80),
        loads_cube_transpose=_grid(0.05, 0.10, 0.16, 0.24, 0.34, 0.50, 0.70),
        loads_cube_reverse_flip=_grid(0.05, 0.12, 0.20, 0.30, 0.45, 0.65, 0.90),
    ),
    "paper": Preset(
        name="paper",
        mesh_side=16,
        cube_dims=8,
        warmup_cycles=6_000,
        measure_cycles=24_000,
        drain_cycles=10_000,
        loads_mesh_uniform=_grid(0.03, 0.06, 0.10, 0.14, 0.18, 0.24, 0.32, 0.42),
        loads_mesh_transpose=_grid(0.02, 0.05, 0.08, 0.11, 0.15, 0.20, 0.27, 0.36),
        loads_cube_uniform=_grid(0.08, 0.16, 0.25, 0.35, 0.48, 0.64, 0.85),
        loads_cube_transpose=_grid(0.04, 0.09, 0.13, 0.18, 0.24, 0.32, 0.46, 0.65),
        loads_cube_reverse_flip=_grid(0.05, 0.12, 0.20, 0.30, 0.45, 0.65, 0.90),
    ),
}


def get_preset(name: str) -> Preset:
    """Look up a preset by name (``quick``, ``mid``, or ``paper``)."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known: {known}") from None


@dataclass(frozen=True)
class FaultSweepPreset:
    """One scale of the runtime fault-tolerance experiment.

    The ``paper`` scale compares the turn-model algorithms against
    dimension-order xy on the paper's 16x16 mesh under escalating
    runtime link-failure counts — Section 1's fault-tolerance claim as a
    measurement (see ``repro resilience`` and
    :func:`repro.resilience.fault_sweep`).

    Attributes:
        name: preset identifier.
        mesh_side: the mesh is ``mesh_side x mesh_side``.
        pattern: traffic pattern name.
        load: offered load, below saturation so delivered fraction
            isolates fault losses from congestion losses.
        fault_counts: the escalation axis (0 = healthy baseline).
        algorithms: routing registry names compared.
        warmup_cycles, measure_cycles, drain_cycles: simulator windows.
        policy: recovery policy for casualties.
    """

    name: str
    mesh_side: int
    pattern: str
    load: float
    fault_counts: tuple
    algorithms: tuple = (
        "xy",
        "west-first",
        "negative-first",
        "west-first-nonminimal",
    )
    warmup_cycles: int = 1_500
    measure_cycles: int = 6_000
    drain_cycles: int = 2_500
    policy: str = "drop"

    def topology(self) -> str:
        """The mesh as a topology spec string."""
        return f"mesh:{self.mesh_side}x{self.mesh_side}"

    def sim_config(self, **overrides) -> SimulationConfig:
        settings = dict(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain_cycles=self.drain_cycles,
        )
        settings.update(overrides)
        return SimulationConfig(**settings)

    def obs_spec(self) -> "ObsSpec":
        """Observability knobs scaled to this preset's windows."""
        return _preset_obs_spec(
            self.warmup_cycles + self.measure_cycles + self.drain_cycles
        )


FAULT_SWEEP_PRESETS = {
    "quick": FaultSweepPreset(
        name="quick",
        mesh_side=8,
        pattern="uniform",
        load=0.06,
        fault_counts=(0, 2, 4, 8),
        warmup_cycles=400,
        measure_cycles=2_000,
        drain_cycles=1_000,
    ),
    "mid": FaultSweepPreset(
        name="mid",
        mesh_side=16,
        pattern="uniform",
        load=0.05,
        fault_counts=(0, 4, 8, 16),
        warmup_cycles=1_500,
        measure_cycles=6_000,
        drain_cycles=2_500,
    ),
    "paper": FaultSweepPreset(
        name="paper",
        mesh_side=16,
        pattern="uniform",
        load=0.05,
        fault_counts=(0, 4, 8, 16, 24),
        warmup_cycles=3_000,
        measure_cycles=10_000,
        drain_cycles=4_000,
    ),
}


def get_fault_sweep_preset(name: str) -> FaultSweepPreset:
    """Look up a fault-sweep preset (``quick``, ``mid``, or ``paper``)."""
    try:
        return FAULT_SWEEP_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_SWEEP_PRESETS))
        raise ValueError(f"unknown preset {name!r}; known: {known}") from None
