"""The turn model: directions, turns, cycles, restrictions, and proofs.

This package implements the paper's primary contribution (Section 2): the
six-step procedure for deriving deadlock-free, livelock-free, maximally
adaptive wormhole routing algorithms by prohibiting the minimum number of
turns, together with the supporting theory — the Dally-Seitz channel
dependency test, the channel numbering certificates of Theorems 2/3/5, and
the degree-of-adaptiveness formulas of Sections 3.4, 4.1, and 5.

The submodules that operate on concrete topologies (``channel_graph``,
``numbering``, ``adaptiveness``) are re-exported lazily so that
``repro.topology`` can import the direction algebra without a circular
import.
"""

from repro.core.digraph import Digraph
from repro.core.directions import EAST, NORTH, SOUTH, WEST, Direction, all_directions
from repro.core.model import apply_symmetry, signed_permutation_symmetries
from repro.core.restrictions import (
    TurnRestriction,
    abonf_restriction,
    abopl_restriction,
    dimension_order_restriction,
    fully_adaptive,
    negative_first_restriction,
    north_last_restriction,
    turn_from_payload,
    turn_to_payload,
    west_first_restriction,
    xy_restriction,
)
from repro.core.turns import (
    Turn,
    abstract_cycles,
    all_turns,
    minimum_prohibited_turns,
    ninety_degree_turns,
)

#: Lazily re-exported names and the submodules providing them (these
#: submodules import repro.topology, which imports this package).
_LAZY = {
    "routing_cdg": "channel_graph",
    "CycleWitness": "channel_graph",
    "restriction_is_deadlock_free": "channel_graph",
    "maximal_reversal_extension": "channel_graph",
    "RouteFn": "channel_graph",
    "west_first_numbering": "numbering",
    "north_last_numbering": "numbering",
    "negative_first_numbering": "numbering",
    "numbering_violations": "numbering",
    "potential_numbering": "numbering",
    "multinomial": "adaptiveness",
    "s_fully_adaptive": "adaptiveness",
    "s_west_first": "adaptiveness",
    "s_north_last": "adaptiveness",
    "s_negative_first": "adaptiveness",
    "s_abonf": "adaptiveness",
    "s_abopl": "adaptiveness",
    "s_pcube": "adaptiveness",
    "s_ecube": "adaptiveness",
    "pcube_adaptiveness_ratio": "adaptiveness",
    "average_adaptiveness_ratio": "adaptiveness",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "Direction",
    "all_directions",
    "WEST",
    "EAST",
    "SOUTH",
    "NORTH",
    "Turn",
    "all_turns",
    "ninety_degree_turns",
    "abstract_cycles",
    "minimum_prohibited_turns",
    "TurnRestriction",
    "turn_to_payload",
    "turn_from_payload",
    "fully_adaptive",
    "xy_restriction",
    "dimension_order_restriction",
    "west_first_restriction",
    "north_last_restriction",
    "negative_first_restriction",
    "abonf_restriction",
    "abopl_restriction",
    "Digraph",
    "CycleWitness",
    "RouteFn",
    "apply_symmetry",
    "average_adaptiveness_ratio",
    "maximal_reversal_extension",
    "multinomial",
    "negative_first_numbering",
    "north_last_numbering",
    "numbering_violations",
    "pcube_adaptiveness_ratio",
    "potential_numbering",
    "restriction_is_deadlock_free",
    "routing_cdg",
    "s_abonf",
    "s_abopl",
    "s_ecube",
    "s_fully_adaptive",
    "s_negative_first",
    "s_north_last",
    "s_pcube",
    "s_west_first",
    "signed_permutation_symmetries",
    "west_first_numbering",
]

assert set(__all__) >= set(_LAZY), "lazy re-exports missing from __all__"
