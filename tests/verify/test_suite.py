"""The registry-wide sweep, the certify() gate, and the executor hook."""

from __future__ import annotations

import pytest

from repro.routing import make_routing
from repro.sim.deadlock import unrestricted_adaptive_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import Mesh2D
from repro.verify import (
    CertificationError,
    VerificationReport,
    VerifyTarget,
    certify,
    default_targets,
    verify_all,
    verify_target,
)


class TestDefaultTargets:
    def test_includes_fixtures_and_extras(self):
        targets = default_targets()
        labels = [target.label for target in targets]
        assert "fixture:figure1/unrestricted-adaptive" in labels
        assert "fixture:figure4/figure-4-faulty" in labels
        assert any("+faults" in label for label in labels)
        assert any("+2vc" in label for label in labels)

    def test_filtering_drops_extras(self):
        targets = default_targets(topologies=["mesh:5x4"])
        assert all(target.topology_label == "mesh:5x4" for target in targets)
        assert all(target.expect == "certified" for target in targets)

    def test_algorithm_filter(self):
        targets = default_targets(
            topologies=["mesh:5x4"], algorithms=["west-first", "north-last"]
        )
        assert sorted(target.routing.name for target in targets) == [
            "north-last",
            "west-first",
        ]


class TestVerifyAll:
    @pytest.fixture(scope="class")
    def report(self) -> VerificationReport:
        return verify_all()

    def test_sweep_is_green(self, report):
        assert report.ok, "\n".join(t.target for t in report.unexpected())

    def test_only_the_fixtures_refute(self, report):
        refuted = [t.target for t in report.targets if not t.certified]
        assert sorted(refuted) == [
            "fixture:figure1/unrestricted-adaptive",
            "fixture:figure4/figure-4-faulty",
        ]

    def test_every_target_ran_all_five_checks(self, report):
        for target in report.targets:
            assert len(target.checks) == 5, target.target

    def test_json_round_trip(self, report):
        assert VerificationReport.from_json(report.to_json()) == report


class TestCertify:
    def test_certified_algorithm_returns_report(self, mesh44):
        report = certify(mesh44, make_routing("west-first", mesh44), "mesh:4x4")
        assert report.certified
        assert report.topology == "mesh:4x4"

    def test_refuted_algorithm_raises_with_witness(self, mesh44):
        with pytest.raises(CertificationError) as excinfo:
            certify(mesh44, unrestricted_adaptive_routing(mesh44), "mesh:4x4")
        message = str(excinfo.value)
        assert "deadlock-freedom" in message
        assert "dependency cycle" in message
        assert excinfo.value.report.refutations()

    def test_verify_target_honors_expectation(self, mesh44):
        target = VerifyTarget(
            label="fixture:figure1/unrestricted-adaptive",
            topology_label="mesh:4x4",
            topology=mesh44,
            routing=unrestricted_adaptive_routing(mesh44),
            expect="refuted",
        )
        report = verify_target(target)
        assert not report.certified
        assert report.as_expected


    def test_every_check_reads_the_one_closure(self, mesh44, monkeypatch):
        closures = []
        original = CompiledRoutes.closure

        def counted(compiled):
            closures.append(compiled)
            return original(compiled)

        monkeypatch.setattr(CompiledRoutes, "closure", counted)
        target = VerifyTarget(
            label="mesh:4x4/west-first",
            topology_label="mesh:4x4",
            topology=mesh44,
            routing=make_routing("west-first", mesh44),
        )
        report = verify_target(target)
        assert report.certified
        assert [check.verdict for check in report.checks] == ["proved"] * 5
        assert len(closures) == 1


class TestVerifyBatch:
    def test_batch_reports_refutations_without_raising(self, mesh44):
        from repro.verify import PROOF_CHECKERS, verify_batch

        targets = [
            VerifyTarget(
                label="mesh:4x4/west-first",
                topology_label="mesh:4x4",
                topology=mesh44,
                routing=make_routing("west-first", mesh44),
            ),
            VerifyTarget(
                label="mesh:4x4/unrestricted",
                topology_label="mesh:4x4",
                topology=mesh44,
                routing=unrestricted_adaptive_routing(mesh44),
            ),
        ]
        report = verify_batch(targets, PROOF_CHECKERS)
        assert len(report.targets) == 2
        assert report.targets[0].certified
        assert not report.targets[1].certified

    def test_batch_preserves_input_order(self, mesh44):
        from repro.verify import PROOF_CHECKERS, verify_batch

        names = ["north-last", "west-first", "negative-first"]
        targets = [
            VerifyTarget(
                label=f"mesh:4x4/{name}",
                topology_label="mesh:4x4",
                topology=mesh44,
                routing=make_routing(name, mesh44),
            )
            for name in names
        ]
        report = verify_batch(targets, PROOF_CHECKERS)
        assert [t.target for t in report.targets] == [t.label for t in targets]

    def test_proof_checkers_run_exactly_three_checks(self, mesh44):
        from repro.verify import PROOF_CHECKERS, verify_batch

        (target,) = verify_batch(
            [
                VerifyTarget(
                    label="mesh:4x4/west-first",
                    topology_label="mesh:4x4",
                    topology=mesh44,
                    routing=make_routing("west-first", mesh44),
                )
            ],
            PROOF_CHECKERS,
        ).targets
        assert [check.check for check in target.checks] == [
            "deadlock-freedom",
            "connectivity",
            "livelock-freedom",
        ]


class TestExecutorGate:
    def test_gate_certifies_and_memoizes(self):
        from repro.analysis.executor import ExperimentSpec, PointSpec, SweepExecutor

        executor = SweepExecutor(require_certification=True)
        spec = ExperimentSpec(
            topology="mesh:4x4",
            routing="west-first",
            pattern="transpose",
            load=0.05,
        )
        executor._certify_points([PointSpec(spec=spec)])
        assert ("mesh:4x4", "west-first") in executor._certified

    def test_gate_off_by_default(self):
        from repro.analysis.executor import SweepExecutor

        executor = SweepExecutor()
        assert not executor.require_certification


def test_registry_sweep_covers_every_algorithm():
    """Every registry name is exercised by at least one default target."""
    from repro.api import parse_topology
    from repro.routing import available_algorithms
    from repro.verify.suite import REGISTRY_TOPOLOGIES

    expected = set()
    for label in REGISTRY_TOPOLOGIES:
        expected.update(available_algorithms(parse_topology(label)))
    covered = {
        target.label.split("/", 1)[1]
        for target in default_targets()
        if target.expect == "certified"
    }
    missing = expected - covered
    assert not missing, f"registry algorithms never verified: {sorted(missing)}"
