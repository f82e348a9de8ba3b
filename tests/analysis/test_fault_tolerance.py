"""Tests for the fault-tolerance connectivity analysis."""

import pytest

from repro.analysis.fault_tolerance import (
    fault_tolerance_sweep,
    routable_fraction,
)
from repro.core.directions import EAST
from repro.core.restrictions import (
    negative_first_restriction,
    west_first_restriction,
)
from repro.routing import make_routing
from repro.sim.ids import CompiledRoutes
from repro.topology import Mesh2D
from tests.sim.degraded import faulted_routing


class TestRoutableFraction:
    def test_healthy_network_fully_routable(self, mesh44):
        for name in ("xy", "west-first", "negative-first"):
            assert routable_fraction(CompiledRoutes(make_routing(name, mesh44))) == 1.0

    def test_fraction_drops_with_fault(self, mesh44):
        east = mesh44.channel_in_direction((0, 0), EAST)
        healthy = CompiledRoutes(make_routing("west-first", mesh44))
        rule = CompiledRoutes.reach_restricted(healthy, [healthy.index.cid[east]])
        fraction = routable_fraction(rule)
        assert fraction < 1.0
        # The look-ahead router re-made on the faulty mesh agrees.
        oracle = faulted_routing(healthy.routing, frozenset([east]), mesh44)
        assert routable_fraction(CompiledRoutes(oracle, healthy.index)) == fraction


class TestFaultSweep:
    def test_nonminimal_at_least_as_tolerant(self):
        mesh = Mesh2D(5, 5)
        points = fault_tolerance_sweep(
            mesh, west_first_restriction(), [1, 3, 6], seed=7
        )
        for point in points:
            assert point.nonminimal_fraction >= point.minimal_fraction

    def test_zero_faults_fully_connected(self):
        mesh = Mesh2D(4, 4)
        (point,) = fault_tolerance_sweep(
            mesh, negative_first_restriction(2), [0]
        )
        assert point.minimal_fraction == 1.0
        assert point.nonminimal_fraction == 1.0

    def test_monotone_degradation_on_average(self):
        mesh = Mesh2D(4, 4)
        points = fault_tolerance_sweep(
            mesh, west_first_restriction(), [0, 8], seed=3
        )
        assert points[1].minimal_fraction < points[0].minimal_fraction
