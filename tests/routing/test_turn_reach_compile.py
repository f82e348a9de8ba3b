"""The turn table's one compile, held to definitions that use no ids.

* **Step 4's relation.**  :func:`turn_successors` builds each channel's
  mask per direction; it must equal the per-pair definition (one
  ``permits`` call per channel pair) on every topology family and on a
  faulted mesh.
* **Nonminimal mode.**  A nonminimal turn table must offer exactly the
  permitted outputs from which some permitted walk enters the
  destination, productive hops first, on every state: the object-level
  oracle below, which walks channels and never numbers them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import pytest

from repro.core.channel_graph import turn_successors
from repro.core.directions import all_directions
from repro.core.restrictions import (
    TurnRestriction,
    abopl_restriction,
    dimension_order_restriction,
    negative_first_restriction,
)
from repro.core.turns import Turn
from repro.routing import TurnRestrictionRouting
from repro.synth.enumeration import enumerate_candidates
from repro.topology import parse_topology, random_channel_faults
from repro.topology.channels import Channel, NodeId


def per_pair_successors(topology, restriction):
    """Step 4's relation by its definition: ``a -> b`` when ``b`` leaves
    ``a``'s head and the restriction permits ``a``'s direction turning
    into ``b``'s."""
    ids = {channel: ident for ident, channel in enumerate(topology.channels())}
    return [
        sum(
            1 << ids[out]
            for out in topology.out_channels(channel.dst)
            if restriction.permits(channel.direction, out.direction)
        )
        for channel in topology.channels()
    ]


#: Restrictions at a dimensionality: every turn permitted, two
#: n-dimensional turn sets, and Step 6's extension of one (reversals).
RESTRICTIONS = {
    "unrestricted": lambda n: TurnRestriction(n, frozenset()),
    "dimension-order": dimension_order_restriction,
    "negative-first": negative_first_restriction,
    "abopl+reversals": lambda n: abopl_restriction(n).with_reversals(
        [Turn(direction, direction.opposite) for direction in all_directions(n)]
    ),
}


@pytest.mark.parametrize("spec", ["mesh:4x4", "torus:4x2", "cube:4", "mesh:3x3x3", "faulty"])
@pytest.mark.parametrize("name", sorted(RESTRICTIONS))
def test_turn_successors_equal_the_per_pair_definition(spec, name):
    if spec == "faulty":
        topology = random_channel_faults(parse_topology("mesh:5x5"), 6, seed=3)
    else:
        topology = parse_topology(spec)
    restriction = RESTRICTIONS[name](topology.n_dims)
    assert turn_successors(topology, restriction) == per_pair_successors(topology, restriction)


class NonminimalOracle:
    """Nonminimal turn-set routing by its definition, on channel objects:
    the permitted non-wraparound outputs from which a permitted walk
    enters the destination, productive hops first."""

    def __init__(self, topology, restriction: TurnRestriction):
        self.topology = topology
        self.restriction = restriction
        self.entered: Dict[Channel, FrozenSet[NodeId]] = {
            channel: self._walk(channel) for channel in topology.channels()
        }

    def _walk(self, start: Channel) -> FrozenSet[NodeId]:
        """Every node a permitted walk beginning on ``start`` enters."""
        seen = {start}
        frontier = [start]
        for held in frontier:  # grows as the walk advances
            for out in self.topology.out_channels(held.dst):
                if out not in seen and self.restriction.permits(held.direction, out.direction):
                    seen.add(out)
                    frontier.append(out)
        return frozenset(held.dst for held in seen)

    def route(
        self, in_channel: Optional[Channel], node: NodeId, dest: NodeId
    ) -> Tuple[Channel, ...]:
        arrival = None if in_channel is None else in_channel.direction
        offered = [
            channel
            for channel in self.topology.out_channels(node)
            if not channel.wraparound
            and self.restriction.permits(arrival, channel.direction)
            and dest in self.entered[channel]
        ]
        productive = self.topology.minimal_directions(node, dest)
        return tuple(sorted(offered, key=lambda channel: channel.direction not in productive))


def assert_nonminimal_is_the_oracle(topology, restriction):
    table = TurnRestrictionRouting(topology, restriction, minimal=False)
    oracle = NonminimalOracle(topology, restriction)
    nodes = list(topology.nodes())
    for dest in nodes:
        for node in nodes:
            assert table.route(None, node, dest) == oracle.route(None, node, dest)
        for channel in topology.channels():
            assert table.route(channel, channel.dst, dest) == oracle.route(
                channel, channel.dst, dest
            ), (channel, dest)


CANDIDATES_2D, _ = enumerate_candidates(2)
CANDIDATES_3D, _ = enumerate_candidates(3)


@pytest.mark.parametrize("index", range(len(CANDIDATES_2D)))
def test_nonminimal_2d_candidates_are_the_oracle(index):
    restriction = TurnRestriction(2, frozenset(CANDIDATES_2D[index]))
    assert_nonminimal_is_the_oracle(parse_topology("mesh:4x4"), restriction)


@pytest.mark.parametrize("index", range(0, len(CANDIDATES_3D), 256))
def test_nonminimal_3d_sample_is_the_oracle(index):
    restriction = TurnRestriction(3, frozenset(CANDIDATES_3D[index]))
    assert_nonminimal_is_the_oracle(parse_topology("mesh:3x3x3"), restriction)


@pytest.mark.parametrize("seed", range(3))
def test_nonminimal_on_a_faulty_mesh_is_the_oracle(seed):
    faulty = random_channel_faults(parse_topology("mesh:5x5"), 4 + 2 * seed, seed=seed)
    assert_nonminimal_is_the_oracle(faulty, negative_first_restriction(2))


def test_nonminimal_on_a_torus_is_the_oracle():
    # Walks may cross wraparound channels; the table never offers one.
    assert_nonminimal_is_the_oracle(parse_topology("torus:5x2"), negative_first_restriction(2))
