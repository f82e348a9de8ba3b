"""Static certification of routing algorithms (``repro verify``).

Machine-checkable proofs — not just boolean checks — that a routing
algorithm on a topology is deadlock free (explicit channel numbering per
Dally-Seitz and Theorems 2-5), connected (every pair routable, no
dead-end states), and livelock free (bounded walk length), plus analytic
cross-checks of the degree-of-adaptiveness closed forms and Theorem 1's
turn-prohibition minimum.  Refutations carry concrete witnesses: the
Figure 1 fixture renders as the paper's four-channel circular wait.

Entry points: :func:`verify_all` (the standard sweep, exposed as
``repro verify --all``), :func:`certify` (the executor's pre-launch
gate), :func:`certify_table` and :func:`recertify` (the fault
controller's), and the individual ``check_*`` functions.
"""

from repro.verify.connectivity import check_connectivity
from repro.verify.deadlock import (
    check_deadlock_freedom,
    recheck_numbering_certificate,
)
from repro.verify.livelock import check_livelock_freedom
from repro.verify.properties import check_adaptiveness, check_turn_minimum
from repro.verify.report import (
    PROVED,
    REFUTED,
    SKIPPED,
    Certificate,
    CheckResult,
    TargetReport,
    VerificationReport,
)
from repro.verify.suite import (
    PROOF_CHECKERS,
    REGISTRY_TOPOLOGIES,
    CertificationError,
    VerifyTarget,
    certify,
    certify_table,
    default_targets,
    recertify,
    verify_all,
    verify_batch,
    verify_target,
)

__all__ = [
    "PROVED",
    "REFUTED",
    "SKIPPED",
    "Certificate",
    "CheckResult",
    "TargetReport",
    "VerificationReport",
    "CertificationError",
    "VerifyTarget",
    "REGISTRY_TOPOLOGIES",
    "PROOF_CHECKERS",
    "certify",
    "certify_table",
    "check_adaptiveness",
    "check_connectivity",
    "check_deadlock_freedom",
    "check_livelock_freedom",
    "check_turn_minimum",
    "default_targets",
    "recertify",
    "recheck_numbering_certificate",
    "verify_all",
    "verify_batch",
    "verify_target",
]
