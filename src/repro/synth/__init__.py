"""Turn-model synthesis: enumerate, certify, and rank routing algorithms.

The paper derives its partially adaptive algorithms by hand: prohibit
the minimum turns to break every abstract cycle (Step 4), check the
survivors, and keep the ones unique up to symmetry.  This package
mechanizes that derivation end to end:

- :mod:`repro.synth.enumeration` — the one-turn-per-cycle candidate
  space (16 sets for a 2D mesh, ``4**(n(n-1))`` in general),
- :mod:`repro.synth.symmetry` — quotient by the signed-permutation
  group, yielding canonical :class:`SymmetryClass` representatives,
- :mod:`repro.synth.certify` — exact deadlock/connectivity/livelock
  proofs through :mod:`repro.verify`,
- :mod:`repro.synth.score` — degree-of-adaptiveness ranking,
- :mod:`repro.synth.compile` — certified winners become runnable
  routers under self-describing ``synth*`` registry names,
- :mod:`repro.synth.engine` — the pipeline; :func:`run_synthesis`
  reproduces the Section 3 census (12 deadlock-free of 16, three
  unique algorithms: west-first, north-last, negative-first),
- :mod:`repro.synth.report` — the census table for ``repro synth``.
"""

from repro.synth.certify import candidate_target, certify_candidates
from repro.synth.compile import (
    compile_candidate,
    rediscovered_algorithms,
    rediscovery_missing,
)
from repro.synth.engine import CandidateOutcome, SynthesisResult, run_synthesis
from repro.synth.enumeration import (
    candidate_space_size,
    enumerate_candidates,
    synthesis_dims,
)
from repro.synth.report import render_synthesis
from repro.synth.score import (
    adaptiveness_score,
    named_restrictions,
    scoring_topology,
)
from repro.synth.spec import (
    SYNTH_SPEC_VERSION,
    SynthSpec,
    default_synth_config,
    normalize_topology_spec,
)
from repro.synth.symmetry import SymmetryClass, classify_candidates, orbit_of

__all__ = [
    "SYNTH_SPEC_VERSION",
    "CandidateOutcome",
    "SymmetryClass",
    "SynthSpec",
    "SynthesisResult",
    "adaptiveness_score",
    "candidate_space_size",
    "candidate_target",
    "certify_candidates",
    "classify_candidates",
    "compile_candidate",
    "default_synth_config",
    "enumerate_candidates",
    "named_restrictions",
    "normalize_topology_spec",
    "orbit_of",
    "rediscovered_algorithms",
    "rediscovery_missing",
    "render_synthesis",
    "run_synthesis",
    "scoring_topology",
    "synthesis_dims",
]
