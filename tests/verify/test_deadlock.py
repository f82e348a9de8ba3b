"""Deadlock checker: numbering proofs and paper-figure refutations."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.routing import make_routing
from repro.sim.deadlock import figure4_routing, unrestricted_adaptive_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import Hypercube, Mesh2D, Torus
from repro.verify import (
    PROVED,
    REFUTED,
    CertificationError,
    certify_table,
    check_deadlock_freedom,
    default_targets,
    recertify,
    recheck_numbering_certificate,
)
from repro.verify.deadlock import closure_numbering, is_monotone, route_closure


class TestClosedFormProofs:
    """The paper's theorems are used as the certificates when they apply."""

    @pytest.mark.parametrize(
        "algorithm, scheme, order",
        [
            ("west-first", "theorem-2-west-first", "decreasing"),
            ("north-last", "theorem-3-north-last", "increasing"),
            ("negative-first", "theorem-5-negative-first", "increasing"),
        ],
    )
    def test_mesh_closed_forms(self, mesh54, algorithm, scheme, order):
        result = check_deadlock_freedom(mesh54, make_routing(algorithm, mesh54))
        assert result.verdict == PROVED
        assert result.certificate.kind == "channel-numbering"
        assert result.certificate.data["scheme"] == scheme
        assert result.certificate.data["order"] == order

    def test_hypercube_pcube_uses_theorem5(self):
        cube = Hypercube(4)
        result = check_deadlock_freedom(cube, make_routing("p-cube", cube))
        assert result.verdict == PROVED
        assert result.certificate.data["scheme"] == "theorem-5-negative-first"

    def test_xy_falls_back_to_topological(self, mesh54):
        result = check_deadlock_freedom(mesh54, make_routing("xy", mesh54))
        assert result.verdict == PROVED
        assert result.certificate.data["scheme"] == "topological"

    def test_numbering_covers_every_channel_in_the_cdg(self, mesh54):
        result = check_deadlock_freedom(mesh54, make_routing("west-first", mesh54))
        numbering = result.certificate.data["numbering"]
        assert len(numbering) > 0
        assert all(isinstance(number, int) for number in numbering.values())


#: The numbering scheme each proved default target is certified by.  A
#: closed form that stops certifying its algorithm shows up here as a
#: changed row, not as a silent fallback to ``topological``.
WF, NL, NF, TOPO = (
    "theorem-2-west-first",
    "theorem-3-north-last",
    "theorem-5-negative-first",
    "topological",
)
SCHEMES = {
    "mesh:5x4/abonf": WF,
    "mesh:5x4/abonf-nonminimal": WF,
    "mesh:5x4/abopl": NL,
    "mesh:5x4/abopl-nonminimal": NL,
    "mesh:5x4/dimension-order": TOPO,
    "mesh:5x4/negative-first": NF,
    "mesh:5x4/negative-first-nonminimal": NF,
    "mesh:5x4/north-last": NL,
    "mesh:5x4/north-last-nonminimal": NL,
    "mesh:5x4/west-first": WF,
    "mesh:5x4/west-first-nonminimal": WF,
    "mesh:5x4/xy": TOPO,
    "mesh:5x4/yx": TOPO,
    "mesh:3x3x3/abonf": TOPO,
    "mesh:3x3x3/abonf-nonminimal": TOPO,
    "mesh:3x3x3/abopl": TOPO,
    "mesh:3x3x3/abopl-nonminimal": TOPO,
    "mesh:3x3x3/dimension-order": TOPO,
    "mesh:3x3x3/negative-first": NF,
    "mesh:3x3x3/negative-first-nonminimal": NF,
    "cube:4/abonf": TOPO,
    "cube:4/abonf-nonminimal": TOPO,
    "cube:4/abopl": TOPO,
    "cube:4/abopl-nonminimal": TOPO,
    "cube:4/dimension-order": TOPO,
    "cube:4/e-cube": TOPO,
    "cube:4/negative-first": NF,
    "cube:4/negative-first-nonminimal": NF,
    "cube:4/p-cube": NF,
    "cube:4/p-cube-nonminimal": NF,
    "torus:4x2/negative-first+first-hop-wrap": TOPO,
    "torus:4x2/negative-first-torus": TOPO,
    "torus:4x2/xy+first-hop-wrap": TOPO,
    "hex:5x5/hex-ab-order": TOPO,
    "hex:5x5/hex-negative-first": TOPO,
    "oct:5x5/oct-ab-order": TOPO,
    "oct:5x5/oct-negative-first": TOPO,
    "mesh:5x5+faults2@seed5/west-first-nonminimal": TOPO,
    "mesh:4x4+2vc/o1turn": TOPO,
    "torus:4x2+2vc/dateline-dor": TOPO,
}

PROVED_TARGETS = [t for t in default_targets() if t.expect == "certified"]


class TestSchemePin:
    def test_the_table_names_every_proved_default_target(self):
        assert sorted(SCHEMES) == sorted(t.label for t in PROVED_TARGETS)
        assert Counter(SCHEMES.values()) == {WF: 4, NL: 4, NF: 8, TOPO: 24}

    @pytest.mark.parametrize("target", PROVED_TARGETS, ids=lambda t: t.label)
    def test_scheme(self, target):
        result = check_deadlock_freedom(target.topology, target.routing, target.closure())
        assert result.verdict == PROVED
        assert result.certificate.data["scheme"] == SCHEMES[target.label]


class TestFigureRefutations:
    """The paper's two deadlocking configurations must be rejected
    with witnesses matching the figures."""

    def test_figure1_witness_is_the_four_channel_square(self, mesh44):
        routing = unrestricted_adaptive_routing(mesh44)
        result = check_deadlock_freedom(mesh44, routing)
        assert result.verdict == REFUTED
        cert = result.certificate
        assert cert.kind == "dependency-cycle"
        assert len(cert.data["channels"]) == 4
        # Figure 1: four messages each turning right block each other.
        assert sorted(cert.data["turns"]) == sorted(
            ["east->north", "north->west", "west->south", "south->east"]
        )
        # Every dependency is realized by a concrete destination.
        assert all(dest is not None for dest in cert.data["dests"])
        assert "dependency cycle of 4 channels" in cert.data["rendered"]

    def test_figure4_witness_avoids_the_prohibited_turns(self):
        mesh = Mesh2D(5, 5)
        routing = figure4_routing(mesh)
        result = check_deadlock_freedom(mesh, routing)
        assert result.verdict == REFUTED
        cert = result.certificate
        assert len(cert.data["channels"]) == 8
        turns = [turn for turn in cert.data["turns"] if turn != "straight"]
        # The faulty pair prohibits east->south and south->east; the cycle
        # that survives (Figure 4b) must not use either.
        assert "east->south" not in turns
        assert "south->east" not in turns
        assert len(turns) == 6


class TestRecheck:
    """Stored certificates remain independently checkable."""

    @pytest.mark.parametrize(
        "algorithm", ["west-first", "north-last", "negative-first", "xy"]
    )
    def test_valid_certificates_recheck(self, mesh54, algorithm):
        routing = make_routing(algorithm, mesh54)
        result = check_deadlock_freedom(mesh54, routing)
        assert recheck_numbering_certificate(mesh54, routing, result.certificate)

    def test_tampered_numbering_fails_recheck(self, mesh54):
        from repro.verify.report import Certificate

        routing = make_routing("west-first", mesh54)
        result = check_deadlock_freedom(mesh54, routing)
        data = dict(result.certificate.data)
        numbering = dict(data["numbering"])
        # Flatten the numbering: every edge now violates monotonicity.
        numbering = {key: 0 for key in numbering}
        data["numbering"] = numbering
        tampered = Certificate(
            kind=result.certificate.kind,
            summary=result.certificate.summary,
            data=data,
        )
        assert not recheck_numbering_certificate(mesh54, routing, tampered)

    def test_unknown_order_fails_recheck(self, mesh54):
        from repro.verify.report import Certificate

        routing = make_routing("west-first", mesh54)
        result = check_deadlock_freedom(mesh54, routing)
        data = dict(result.certificate.data, order="sideways")
        tampered = Certificate(
            kind=result.certificate.kind,
            summary=result.certificate.summary,
            data=data,
        )
        assert not recheck_numbering_certificate(mesh54, routing, tampered)

    def test_incomplete_numbering_fails_recheck(self, mesh54):
        from repro.verify.report import Certificate

        routing = make_routing("north-last", mesh54)
        result = check_deadlock_freedom(mesh54, routing)
        data = dict(result.certificate.data)
        numbering = dict(data["numbering"])
        numbering.pop(next(iter(numbering)))
        data["numbering"] = numbering
        tampered = Certificate(
            kind=result.certificate.kind,
            summary=result.certificate.summary,
            data=data,
        )
        assert not recheck_numbering_certificate(mesh54, routing, tampered)


class TestTorusAndVirtualChannels:
    def test_negative_first_torus_proves(self):
        torus = Torus(4, 2)
        result = check_deadlock_freedom(
            torus, make_routing("negative-first-torus", torus)
        )
        assert result.verdict == PROVED

    def test_dateline_torus_proves(self):
        from repro.routing.virtual_channels import DatelineTorusRouting
        from repro.topology.virtual import VirtualChannelTopology

        topology = VirtualChannelTopology(Torus(4, 2), lanes=2)
        result = check_deadlock_freedom(topology, DatelineTorusRouting(topology))
        assert result.verdict == PROVED


class TestTableCertificate:
    """The id-level proof a fault run keeps on its healthy table, and the
    restriction check that lets it certify every degraded table."""

    @pytest.mark.parametrize(
        "name", ["xy", "west-first", "negative-first", "west-first-nonminimal"]
    )
    def test_numbering_is_monotone_on_every_dependency(self, mesh44, name):
        closure = route_closure(mesh44, make_routing(name, mesh44).route)
        numbering = closure_numbering(closure)
        assert numbering is not None
        assert sorted(numbering) == list(range(mesh44.num_channels))
        assert is_monotone(closure.succ, numbering)
        assert not is_monotone(closure.succ, [-rank for rank in numbering])

    @pytest.mark.parametrize("fixture", [unrestricted_adaptive_routing, figure4_routing])
    def test_a_cyclic_relation_has_no_numbering(self, fixture):
        mesh = Mesh2D(5, 5)
        assert closure_numbering(route_closure(mesh, fixture(mesh).route)) is None

    def test_the_proof_is_taken_once_and_kept(self, mesh44, monkeypatch):
        healthy = CompiledRoutes(make_routing("west-first-nonminimal", mesh44))
        numbering = certify_table(mesh44, healthy)
        assert healthy.numbering is numbering
        monkeypatch.setattr(CompiledRoutes, "closure", None)  # never again
        assert certify_table(mesh44, healthy) is numbering

    def test_a_refuted_table_raises_with_the_witness(self, mesh44):
        routing = unrestricted_adaptive_routing(mesh44)
        healthy = CompiledRoutes(routing)
        with pytest.raises(CertificationError, match="dependency cycle") as raised:
            certify_table(mesh44, healthy)
        (check,) = raised.value.report.checks
        assert check.to_dict() == check_deadlock_freedom(mesh44, routing).to_dict()
        assert healthy.numbering is None

    def test_recertify_checks_the_precondition(self, mesh44):
        healthy = CompiledRoutes(make_routing("west-first", mesh44))
        derived = CompiledRoutes.restricted(healthy, [frozenset([3])] * 16)
        with pytest.raises(ValueError, match="certified table"):
            recertify(derived)  # the parent carries no proof yet
        certify_table(mesh44, healthy)
        recertify(derived)
        with pytest.raises(ValueError, match="certified table"):
            recertify(healthy)  # not derived from anything
        key = next(k for k, entry in enumerate(derived.dense) if entry)
        derived.dense[key] = tuple(range(healthy.index.num_channels))
        with pytest.raises(ValueError, match="not a restriction"):
            recertify(derived)
