"""The certification sweep: targets, runner, and the executor gate.

A :class:`VerifyTarget` names one ``(topology, routing algorithm)`` pair
and the verdict it is *expected* to get.  :func:`default_targets` builds
the standard sweep: every registered algorithm on every supported
topology, plus a faulted mesh, two virtual-channel configurations, and
the paper's two negative-control fixtures (Figure 1's unrestricted
adaptive routing and Figure 4's faulty prohibition), which the checkers
must refute — a sweep where the fixtures pass silently means the
verifier has lost its teeth.

:func:`certify` is the programmatic gate the sweep executor calls before
launching simulations: it raises :class:`CertificationError`, with the
refuting witnesses rendered, for any algorithm that fails its checks.
:func:`certify_table` and :func:`recertify` are the fault controller's
gate: a route table proved once, and each degraded table checked to be
a restriction of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import available_algorithms, make_routing
from repro.routing.virtual_channels import DatelineTorusRouting, o1turn_routing
from repro.sim.deadlock import figure4_routing, unrestricted_adaptive_routing
from repro.sim.ids import CompiledRoutes, RouteClosure
from repro.topology.base import Topology
from repro.topology.faults import random_channel_faults
from repro.topology.mesh import Mesh2D
from repro.topology.spec import parse_topology
from repro.topology.torus import Torus
from repro.topology.virtual import VirtualChannelTopology
from repro.verify.connectivity import check_connectivity
from repro.verify.deadlock import (
    check_deadlock_freedom,
    closure_dependencies,
    closure_numbering,
    is_monotone,
    route_closure,
)
from repro.verify.livelock import check_livelock_freedom
from repro.verify.properties import check_adaptiveness, check_turn_minimum
from repro.verify.report import (
    CheckResult,
    TargetReport,
    VerificationReport,
)

__all__ = [
    "CertificationError",
    "VerifyTarget",
    "REGISTRY_TOPOLOGIES",
    "PROOF_CHECKERS",
    "default_targets",
    "verify_target",
    "verify_batch",
    "verify_all",
    "certify",
    "certify_table",
    "recertify",
]

#: Topology specs the registry sweep covers: 2D and 3D meshes, a
#: hypercube, a torus, and the Section 7 hexagonal/octagonal meshes.
REGISTRY_TOPOLOGIES = (
    "mesh:5x4",
    "mesh:3x3x3",
    "cube:4",
    "torus:4x2",
    "hex:5x5",
    "oct:5x5",
)

#: Fault configuration for the faulted-mesh target: 2 channels failed on
#: a 5x5 mesh, seed chosen so the nonminimal west-first router keeps the
#: network connected (the certification itself re-proves that).
_FAULT_MESH = (5, 5)
_FAULT_COUNT = 2
_FAULT_SEED = 5


@dataclass(frozen=True)
class VerifyTarget:
    """One ``(topology, routing)`` pair to certify.

    Attributes:
        label: unique name of the target, e.g. ``"mesh:5x4/west-first"``.
        topology_label: the topology's spec string, or a descriptive
            label for faulted and virtual-channel topologies (which have
            no spec strings).
        topology: the network instance.
        routing: the algorithm instance.
        expect: ``"certified"`` or ``"refuted"`` — what the sweep
            expects; fixtures expect refutation.
        table: the table to certify when it is not the routing compiled
            on ``topology`` (the faulted target's reach-rule table).
    """

    label: str
    topology_label: str
    topology: Topology
    routing: RoutingAlgorithm
    expect: str = "certified"
    table: Optional[CompiledRoutes] = None

    def closure(self) -> RouteClosure:
        """The closure of the relation this target certifies: its
        :attr:`table`'s, or its routing's compiled on its topology."""
        if self.table is not None:
            return self.table.closure()
        return route_closure(self.topology, self.routing)


def _registry_targets(
    topologies: Sequence[str], algorithms: Optional[Sequence[str]] = None
) -> List[VerifyTarget]:
    """Every registered algorithm on every listed topology spec."""
    targets: List[VerifyTarget] = []
    for spec in topologies:
        topology = parse_topology(spec)
        for name in available_algorithms(topology):
            if algorithms is not None and name not in algorithms:
                continue
            targets.append(
                VerifyTarget(
                    label=f"{spec}/{name}",
                    topology_label=spec,
                    topology=topology,
                    routing=make_routing(name, topology),
                )
            )
    return targets


def _faulted_target() -> VerifyTarget:
    """A faulted mesh served by the nonminimal west-first router: its
    healthy table by the reach rule, on the faulted topology (which the
    checkers read, so no closed form applies)."""
    m, n = _FAULT_MESH
    mesh = Mesh2D(m, n)
    faulty = random_channel_faults(mesh, _FAULT_COUNT, seed=_FAULT_SEED)
    routing = make_routing("west-first-nonminimal", mesh)
    healthy = CompiledRoutes(routing)
    failed = [healthy.index.cid[channel] for channel in faulty.failed]
    label = f"mesh:{m}x{n}+faults{_FAULT_COUNT}@seed{_FAULT_SEED}"
    return VerifyTarget(
        label=f"{label}/west-first-nonminimal",
        topology_label=label,
        topology=faulty,
        routing=routing,
        table=CompiledRoutes.reach_restricted(healthy, failed),
    )


def _virtual_channel_targets() -> List[VerifyTarget]:
    """The two extra-channel designs the paper is positioned against."""
    vc_mesh = VirtualChannelTopology(Mesh2D(4, 4), lanes=2)
    vc_torus = VirtualChannelTopology(Torus(4, 2), lanes=2)
    return [
        VerifyTarget(
            label="mesh:4x4+2vc/o1turn",
            topology_label="mesh:4x4+2vc",
            topology=vc_mesh,
            routing=o1turn_routing(vc_mesh),
        ),
        VerifyTarget(
            label="torus:4x2+2vc/dateline-dor",
            topology_label="torus:4x2+2vc",
            topology=vc_torus,
            routing=DatelineTorusRouting(vc_torus),
        ),
    ]


def _fixture_targets() -> List[VerifyTarget]:
    """The negative controls the checkers must refute.

    Figure 1's unrestricted adaptive routing (all turns permitted) and
    Figure 4's faulty prohibition (one turn per abstract cycle, badly
    chosen) both deadlock; the suite requires the checkers to reject
    them with cycle witnesses matching the paper's figures.
    """
    mesh4 = Mesh2D(4, 4)
    mesh5 = Mesh2D(5, 5)
    return [
        VerifyTarget(
            label="fixture:figure1/unrestricted-adaptive",
            topology_label="mesh:4x4",
            topology=mesh4,
            routing=unrestricted_adaptive_routing(mesh4),
            expect="refuted",
        ),
        VerifyTarget(
            label="fixture:figure4/figure-4-faulty",
            topology_label="mesh:5x5",
            topology=mesh5,
            routing=figure4_routing(mesh5),
            expect="refuted",
        ),
    ]


def default_targets(
    topologies: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    include_extras: bool = True,
) -> List[VerifyTarget]:
    """The standard certification sweep.

    Args:
        topologies: topology specs to sweep; defaults to
            :data:`REGISTRY_TOPOLOGIES`.
        algorithms: restrict to these registry names (after
            canonicalization by the caller); ``None`` sweeps all.
        include_extras: include the faulted-mesh, virtual-channel, and
            negative-control fixture targets (skipped when an explicit
            topology or algorithm filter is given, since the extras are
            not registry entries).
    """
    filtered = topologies is not None or algorithms is not None
    targets = _registry_targets(topologies or REGISTRY_TOPOLOGIES, algorithms)
    if include_extras and not filtered:
        targets.append(_faulted_target())
        targets.extend(_virtual_channel_targets())
        targets.extend(_fixture_targets())
    return targets


#: A checker: ``(topology, routing) -> CheckResult``; the three proof
#: checkers and the adaptiveness check also take the target's route
#: closure as a third argument, and the deadlock and livelock checkers
#: its dependency analysis as ``dependencies``.
Checker = Callable[..., CheckResult]

#: The checkers every target runs, in report order.
_CHECKERS: Sequence[Checker] = (
    check_deadlock_freedom,
    check_connectivity,
    check_livelock_freedom,
    check_adaptiveness,
    check_turn_minimum,
)

#: The pure property proofs: deadlock freedom, connectivity, livelock
#: freedom.  Batch certification of *synthesized* candidates runs these
#: three — the remaining checkers compare against the paper's named
#: algorithms (closed-form adaptiveness, Theorem 1 turn counts), which a
#: freshly enumerated candidate has no entry in.
PROOF_CHECKERS: Sequence[Checker] = (
    check_deadlock_freedom,
    check_connectivity,
    check_livelock_freedom,
)

#: The proof checkers that read the closure's decision: numbering or witness.
_CYCLE_CHECKERS: Sequence[Checker] = (check_deadlock_freedom, check_livelock_freedom)

#: The checkers that read the target's route closure.
_CLOSURE_CHECKERS: Sequence[Checker] = (*PROOF_CHECKERS, check_adaptiveness)


def verify_target(
    target: VerifyTarget, checkers: Optional[Sequence[Checker]] = None
) -> TargetReport:
    """Run the checkers (the full suite by default) against one target.

    The target's table is closed once (:meth:`VerifyTarget.closure`);
    the deadlock, connectivity and livelock proofs and the adaptiveness
    count all read that one relation.  It is decided once too
    (:func:`~repro.verify.deadlock.closure_dependencies`), and the
    deadlock and livelock checkers share the numbering or the witness.
    """
    topology, routing = target.topology, target.routing
    closure = target.closure()
    dependencies = closure_dependencies(closure)

    def run(checker: Checker) -> CheckResult:
        if checker in _CYCLE_CHECKERS:
            return checker(topology, routing, closure, dependencies)
        if checker in _CLOSURE_CHECKERS:
            return checker(topology, routing, closure)
        return checker(topology, routing)

    checks = tuple(
        run(checker) for checker in (checkers if checkers is not None else _CHECKERS)
    )
    return TargetReport(
        target=target.label,
        topology=target.topology_label,
        routing=routing.name,
        expect=target.expect,
        checks=checks,
    )


def verify_batch(
    targets: Iterable[VerifyTarget],
    checkers: Optional[Sequence[Checker]] = None,
) -> VerificationReport:
    """Certify a batch of targets under one checker set.

    The synthesis engine's certification entry point: it feeds every
    enumerated candidate (or one representative per symmetry class)
    through :data:`PROOF_CHECKERS` in a single call and reads verdicts
    off the report.  Unlike :func:`certify` this never raises on a
    refutation — a refuted candidate is a *result* of the census (one of
    the paper's 4 deadlocked prohibitions), not an error.
    """
    return VerificationReport(
        targets=tuple(verify_target(target, checkers) for target in targets)
    )


def verify_all(
    targets: Optional[Iterable[VerifyTarget]] = None,
) -> VerificationReport:
    """Certify a sweep of targets (the default sweep when none given)."""
    if targets is None:
        targets = default_targets()
    return verify_batch(targets)


class CertificationError(RuntimeError):
    """An algorithm failed static certification.

    Raised by :func:`certify` before a sweep launches; the message
    carries the refuting checks with their witnesses rendered, so the
    failure is diagnosable without re-running the verifier.
    """

    def __init__(self, report: TargetReport):
        self.report = report
        lines = [
            f"{report.routing} on {report.topology} failed certification:"
        ]
        for check in report.refutations():
            lines.append(f"  {check.check}: {check.detail}")
            if check.certificate is not None:
                rendered = check.certificate.data.get("rendered")
                if rendered:
                    lines.append(str(rendered))
        super().__init__("\n".join(lines))


def certify(
    topology: Topology,
    routing: RoutingAlgorithm,
    topology_label: str = "",
) -> TargetReport:
    """Certify one algorithm, raising on refutation.

    The executor's pre-launch gate: simulating an algorithm the static
    checkers refute wastes the sweep (and the paper's Figure 1 point is
    precisely that such algorithms wedge).

    Returns:
        The target report, when certification succeeds.

    Raises:
        CertificationError: when any check refutes its property.
    """
    label = topology_label or repr(topology)
    report = verify_target(
        VerifyTarget(
            label=f"{label}/{routing.name}",
            topology_label=label,
            topology=topology,
            routing=routing,
        )
    )
    if not report.certified:
        raise CertificationError(report)
    return report


def certify_table(topology: Topology, compiled: CompiledRoutes) -> List[int]:
    """Prove one route table's relation deadlock-free, once.

    The proof is an id-level numbering of the table's closure
    (:func:`~repro.verify.deadlock.closure_numbering`), checked strictly
    monotone on every dependency and kept on the table as
    :attr:`CompiledRoutes.numbering <repro.sim.ids.CompiledRoutes.numbering>`;
    a table that already carries one is not proved again.  A fault run
    proves its healthy table here before the first degraded table is
    derived from it.

    Args:
        topology: the topology the table routes (names the report).

    Returns:
        The numbering, channel id -> rank.

    Raises:
        CertificationError: when the relation has a dependency cycle,
            with the :func:`check_deadlock_freedom` witness.
    """
    if compiled.numbering is None:
        closure = compiled.closure()
        numbering = closure_numbering(closure)
        if numbering is None:
            routing = compiled.routing
            label = repr(topology)
            raise CertificationError(TargetReport(
                target=f"{label}/{routing.name}",
                topology=label,
                routing=routing.name,
                expect="certified",
                checks=(check_deadlock_freedom(topology, routing, closure),),
            ))
        if not is_monotone(closure.succ, numbering):
            raise RuntimeError(
                f"the numbering of {compiled!r} decreases along a dependency"
            )
        compiled.numbering = numbering
    return compiled.numbering


def recertify(compiled: CompiledRoutes) -> None:
    """Re-certify a degraded (faulted) route table mid-run.

    The resilience subsystem's safety gate: every degraded table is a
    restriction of the run's healthy table
    (:meth:`CompiledRoutes.restricted
    <repro.sim.ids.CompiledRoutes.restricted>`), and any channel numbering
    strictly monotone on a relation is strictly monotone on each of its
    subrelations (Dally and Seitz).  So the healthy table's numbering
    (:func:`certify_table`, proved once) certifies the degraded one
    whenever the theorem's precondition holds, and that precondition is
    what is checked here, per entry
    (:meth:`~repro.sim.ids.CompiledRoutes.is_restriction`): no closure is
    taken and no dependency graph is built.  Only deadlock freedom is at
    stake — connectivity loss under faults is the quantity a resilience
    run *measures*.

    Raises:
        ValueError: when ``compiled`` is not a restriction of a table
            :func:`certify_table` proved.
    """
    parent = compiled.parent
    if parent is None or parent.numbering is None:
        raise ValueError(f"{compiled!r} is not derived from a certified table")
    if not compiled.is_restriction():
        raise ValueError(f"{compiled!r} is not a restriction of its certified parent")
