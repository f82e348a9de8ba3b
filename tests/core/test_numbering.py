"""Tests for the channel-numbering deadlock certificates (Theorems 2, 3, 5)."""

import pytest

from repro.core.numbering import (
    negative_first_numbering,
    north_last_numbering,
    numbering_violations,
    west_first_numbering,
)
from repro.routing import make_routing
from repro.topology import Hypercube, Mesh, Mesh2D


class TestWestFirstNumbering:
    """Theorem 2: west-first routes along strictly decreasing numbers."""

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 3), (3, 6), (8, 8)])
    def test_certifies_minimal(self, m, n):
        mesh = Mesh2D(m, n)
        numbering = west_first_numbering(mesh)
        assert numbering_violations(
            mesh, make_routing("west-first", mesh), numbering, "decreasing"
        ) == []

    def test_certifies_nonminimal(self, mesh44):
        # The numbering also covers the nonminimal variant, including the
        # permitted west-to-east reversal.
        numbering = west_first_numbering(mesh44)
        routing = make_routing("west-first-nonminimal", mesh44)
        assert numbering_violations(mesh44, routing, numbering, "decreasing") == []

    def test_every_channel_numbered(self, mesh54):
        numbering = west_first_numbering(mesh54)
        assert set(numbering) == set(mesh54.channels())

    def test_westward_channels_highest(self, mesh54):
        numbering = west_first_numbering(mesh54)
        west_numbers = [
            num for ch, num in numbering.items()
            if ch.direction.dim == 0 and ch.direction.is_negative
        ]
        other_numbers = [
            num for ch, num in numbering.items()
            if not (ch.direction.dim == 0 and ch.direction.is_negative)
        ]
        assert min(west_numbers) > max(other_numbers)

    def test_does_not_certify_xy_in_wrong_order(self, mesh44):
        numbering = west_first_numbering(mesh44)
        routing = make_routing("west-first", mesh44)
        assert numbering_violations(mesh44, routing, numbering, "increasing") != []


class TestNorthLastNumbering:
    """Theorem 3: north-last routes along strictly increasing numbers."""

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 3), (3, 6), (8, 8)])
    def test_certifies_minimal(self, m, n):
        mesh = Mesh2D(m, n)
        numbering = north_last_numbering(mesh)
        assert numbering_violations(
            mesh, make_routing("north-last", mesh), numbering, "increasing"
        ) == []

    def test_certifies_nonminimal(self, mesh44):
        numbering = north_last_numbering(mesh44)
        routing = make_routing("north-last-nonminimal", mesh44)
        assert numbering_violations(mesh44, routing, numbering, "increasing") == []

    def test_northward_channels_highest(self, mesh54):
        numbering = north_last_numbering(mesh54)
        north = [
            num for ch, num in numbering.items()
            if ch.direction.dim == 1 and ch.direction.is_positive
        ]
        rest = [
            num for ch, num in numbering.items()
            if not (ch.direction.dim == 1 and ch.direction.is_positive)
        ]
        assert min(north) > max(rest)


class TestNegativeFirstNumbering:
    """Theorem 5: K - n +/- X, strictly increasing along routes."""

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 3, 3), (2, 3, 4)])
    def test_certifies_mesh(self, shape):
        mesh = Mesh(shape)
        numbering = negative_first_numbering(mesh)
        assert numbering_violations(
            mesh, make_routing("negative-first", mesh), numbering, "increasing"
        ) == []

    def test_certifies_nonminimal(self, mesh44):
        numbering = negative_first_numbering(mesh44)
        routing = make_routing("negative-first-nonminimal", mesh44)
        assert numbering_violations(mesh44, routing, numbering, "increasing") == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_certifies_pcube_on_hypercube(self, n):
        # Section 5: p-cube is the hypercube special case of negative-first,
        # so Theorem 5's numbering certifies it as-is.
        cube = Hypercube(n)
        numbering = negative_first_numbering(cube)
        assert numbering_violations(
            cube, make_routing("p-cube", cube), numbering, "increasing"
        ) == []

    def test_matches_theorem5_formula(self):
        mesh = Mesh((3, 4))
        big_k = 7
        n = 2
        numbering = negative_first_numbering(mesh)
        for channel, number in numbering.items():
            x_sum = sum(channel.src)
            if channel.direction.is_positive:
                assert number == big_k - n + x_sum
            else:
                assert number == big_k - n - x_sum

    def test_certifies_ecube_too(self, cube4):
        # e-cube ascends dimensions; on a hypercube every hop is also a
        # move in negative-first order?  No: e-cube can move positive then
        # negative, which Theorem 5's numbering does not certify.
        numbering = negative_first_numbering(cube4)
        routing = make_routing("e-cube", cube4)
        assert numbering_violations(cube4, routing, numbering, "increasing") != []


class TestCertifierValidation:
    def test_bad_order_rejected(self, mesh44):
        numbering = west_first_numbering(mesh44)
        with pytest.raises(ValueError):
            numbering_violations(
                mesh44, make_routing("xy", mesh44), numbering, "sideways"
            )

    def test_constant_numbering_never_certifies(self, mesh44):
        numbering = {ch: 0 for ch in mesh44.channels()}
        routing = make_routing("xy", mesh44)
        assert numbering_violations(mesh44, routing, numbering, "decreasing") != []
        assert numbering_violations(mesh44, routing, numbering, "increasing") != []
