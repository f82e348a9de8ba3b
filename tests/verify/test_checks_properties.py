"""Adaptiveness cross-check and turn-prohibition audit."""

from __future__ import annotations

import pytest

from repro.routing import make_routing
from repro.topology import Hypercube, Torus
from repro.verify import (
    PROVED,
    REFUTED,
    SKIPPED,
    check_adaptiveness,
    check_turn_minimum,
)
from repro.verify.deadlock import route_closure


class TestAdaptiveness:
    @pytest.mark.parametrize(
        "algorithm",
        ["xy", "west-first", "north-last", "negative-first", "abonf", "abopl"],
    )
    def test_mesh_closed_forms_agree(self, mesh44, algorithm):
        result = check_adaptiveness(mesh44, make_routing(algorithm, mesh44))
        assert result.verdict == PROVED, result.detail
        assert result.certificate.kind == "adaptiveness-table"

    def test_pcube_matches_negative_first_form_on_hypercube(self):
        cube = Hypercube(4)
        result = check_adaptiveness(cube, make_routing("p-cube", cube))
        assert result.verdict == PROVED, result.detail

    def test_torus_has_no_closed_form(self):
        torus = Torus(4, 2)
        result = check_adaptiveness(
            torus, make_routing("negative-first-torus", torus)
        )
        assert result.verdict == SKIPPED

    @pytest.mark.parametrize("algorithm", ["west-first", "west-first-nonminimal"])
    def test_reads_a_closed_closure_without_filling_it(self, mesh44, algorithm):
        routing = make_routing(algorithm, mesh44)
        closure = route_closure(mesh44, routing)
        filled = closure.compiled.filled
        result = check_adaptiveness(mesh44, routing, closure)
        assert result.verdict == PROVED, result.detail
        assert closure.compiled.filled == filled
        assert result == check_adaptiveness(mesh44, make_routing(algorithm, mesh44))

    def test_wrong_closed_form_is_refuted(self, mesh44):
        # A west-first algorithm masquerading as north-last must be caught
        # by the path-count comparison.
        routing = make_routing("west-first", mesh44)
        routing.name = "north-last"
        result = check_adaptiveness(mesh44, routing)
        assert result.verdict == REFUTED
        assert result.certificate.data["mismatches"]


class TestTurnAudit:
    @pytest.mark.parametrize(
        "algorithm", ["west-first", "north-last", "negative-first", "abonf", "abopl"]
    )
    def test_adaptive_algorithms_hit_the_theorem6_minimum(self, mesh44, algorithm):
        result = check_turn_minimum(mesh44, make_routing(algorithm, mesh44))
        assert result.verdict == PROVED, result.detail
        cert = result.certificate
        assert cert.kind == "turn-audit"
        assert cert.data["count"] == cert.data["minimum"] == 2
        assert cert.data["at_minimum"]
        assert cert.data["breaks_every_abstract_cycle"]

    def test_dimension_order_over_restricts(self, mesh44):
        result = check_turn_minimum(mesh44, make_routing("xy", mesh44))
        assert result.verdict == PROVED
        cert = result.certificate
        assert cert.data["count"] == 4
        assert not cert.data["at_minimum"]

    def test_fully_adaptive_restriction_is_refuted(self, mesh44):
        from repro.sim.deadlock import unrestricted_adaptive_routing

        result = check_turn_minimum(mesh44, unrestricted_adaptive_routing(mesh44))
        assert result.verdict == REFUTED
        assert result.certificate.data["count"] == 0

    def test_figure4_passes_the_audit_but_not_the_cdg_check(self):
        # Figure 4's trap: the faulty pair prohibits one turn from each
        # abstract cycle, so the audit alone cannot reject it — only the
        # exact dependency-graph check can (Step 4's warning about
        # complex cycles).  The audit must NOT be the thing that refutes.
        from repro.sim.deadlock import figure4_routing
        from repro.topology import Mesh2D
        from repro.verify import check_deadlock_freedom

        mesh = Mesh2D(5, 5)
        routing = figure4_routing(mesh)
        audit = check_turn_minimum(mesh, routing)
        assert audit.verdict == PROVED
        assert audit.certificate.data["count"] == 2
        assert audit.certificate.data["breaks_every_abstract_cycle"]
        assert check_deadlock_freedom(mesh, routing).verdict == REFUTED

    def test_torus_without_restriction_is_skipped(self):
        torus = Torus(4, 2)
        result = check_turn_minimum(
            torus, make_routing("negative-first-torus", torus)
        )
        assert result.verdict == SKIPPED
