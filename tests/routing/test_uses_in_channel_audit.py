"""Audit of every ``uses_in_channel = False``, declared or detected.

The lint rule only checks that each routing class *declares* the flag;
:class:`~repro.routing.turn_table.TurnRestrictionRouting` derives it per
instance (``False`` for a minimal router over a transitive restriction).
The dense route table collapses all arrival channels of a router into
one ``(node, dest)`` entry on the strength of it, and since the prover
reads that same table, a wrong ``False`` would be proved and simulated
consistently wrong.  So the flag each instance carries is checked here
against the algorithm itself: for every reachable state ``(c, d)`` on
every default target, ``route(c, c.dst, d)`` must equal
``route(None, c.dst, d)``.
"""

import pytest

from repro.routing import TurnRestrictionRouting, available_algorithms, make_routing
from repro.topology.faults import random_channel_faults
from repro.verify import REGISTRY_TOPOLOGIES, default_targets

from tests.sim.degraded import FilteredRouting

TARGETS = default_targets()
DECLARED_FALSE = [
    target for target in TARGETS
    if not getattr(target.routing, "uses_in_channel", True)
]


def reachable_states(topology, routing):
    """Every ``(channel held, destination)`` a packet can be in, walked
    at the object level with the true arrival channel passed."""
    for dest in topology.nodes():
        reached, frontier = set(), []
        for source in topology.nodes():
            if source != dest:
                frontier.extend(routing.route(None, source, dest))
        while frontier:
            channel = frontier.pop()
            if channel in reached:
                continue
            reached.add(channel)
            if channel.dst != dest:
                yield channel, dest
                frontier.extend(routing.route(channel, channel.dst, dest))


def assert_ignores_arrival(topology, routing):
    checked = 0
    for channel, dest in reachable_states(topology, routing):
        blind = tuple(routing.route(None, channel.dst, dest))
        assert tuple(routing.route(channel, channel.dst, dest)) == blind, (
            f"{routing.name} declares uses_in_channel=False but routes "
            f"{channel} -> {dest} differently from an injection at {channel.dst}"
        )
        checked += 1
    assert checked > 0


def test_every_registered_algorithm_is_in_the_sweep():
    swept = {(t.topology_label, t.routing.name) for t in TARGETS}
    for spec in REGISTRY_TOPOLOGIES:
        topology = next(t.topology for t in TARGETS if t.topology_label == spec)
        for name in available_algorithms(topology):
            assert (spec, make_routing(name, topology).name) in swept
    assert len(DECLARED_FALSE) >= 10
    # Both kinds are audited: detected turn sets and declaring classes.
    detected = [t for t in DECLARED_FALSE if isinstance(t.routing, TurnRestrictionRouting)]
    assert detected and len(detected) < len(DECLARED_FALSE)


@pytest.mark.parametrize("target", DECLARED_FALSE, ids=lambda t: t.label)
def test_declared_false_means_arrival_is_ignored(target):
    assert_ignores_arrival(target.topology, target.routing)


@pytest.mark.parametrize("name", ["xy", "west-first", "negative-first"])
def test_filter_degradation_inherits_a_true_flag(name):
    """``FilteredRouting`` (the definition a filtered table is held to)
    copies the base flag; filtering by a fixed failed set keeps a blind
    algorithm blind."""
    faulty = random_channel_faults(
        next(t.topology for t in TARGETS if t.topology_label == "mesh:5x4"),
        3, seed=2,
    )
    base = make_routing(name, faulty.base)
    degraded = FilteredRouting(base, faulty.failed, faulty)
    assert degraded.uses_in_channel is False
    assert_ignores_arrival(faulty, degraded)


def test_the_audit_catches_a_wrong_declaration():
    topology = next(t.topology for t in TARGETS if t.topology_label == "mesh:5x4")
    liar = make_routing("west-first-nonminimal", topology)
    assert liar.uses_in_channel is True
    liar.uses_in_channel = False
    with pytest.raises(AssertionError, match="declares uses_in_channel=False"):
        assert_ignores_arrival(topology, liar)
