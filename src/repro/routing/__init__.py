"""Routing algorithms derived from the turn model, plus baselines.

The paper's turn-model algorithms are turn sets run by
:class:`TurnRestrictionRouting` (see :data:`TURN_SETS`); the classes here
are the routers that are not a turn set on orthogonal directions.
"""

from repro.routing.base import RoutingAlgorithm
from repro.routing.hex_routing import (
    HexDimensionOrderRouting,
    HexNegativeFirstRouting,
)
from repro.routing.oct_routing import (
    OctDimensionOrderRouting,
    OctNegativeFirstRouting,
)
from repro.routing.pcube import PCubeRouting
from repro.routing.registry import (
    TURN_SETS,
    UnknownNameError,
    available_algorithms,
    canonical_name,
    make_routing,
)
from repro.routing.selection import (
    FCFSInputSelection,
    InputSelectionPolicy,
    MostFreeSelection,
    OutputSelectionPolicy,
    RandomInputSelection,
    RandomSelection,
    SelectionContext,
    XYSelection,
    make_input_policy,
    make_output_policy,
)
from repro.routing.synth_names import (
    is_synth_name,
    parse_synth_name,
    routing_from_synth_name,
    synth_name,
)
from repro.routing.torus_routing import (
    FirstHopWraparoundRouting,
    NegativeFirstTorusRouting,
)
from repro.routing.turn_table import TurnRestrictionRouting
from repro.routing.virtual_channels import (
    DatelineTorusRouting,
    LaneSplitRouting,
    o1turn_routing,
)

__all__ = [
    "RoutingAlgorithm",
    "HexNegativeFirstRouting",
    "HexDimensionOrderRouting",
    "OctNegativeFirstRouting",
    "OctDimensionOrderRouting",
    "PCubeRouting",
    "FirstHopWraparoundRouting",
    "NegativeFirstTorusRouting",
    "TurnRestrictionRouting",
    "DatelineTorusRouting",
    "LaneSplitRouting",
    "o1turn_routing",
    "SelectionContext",
    "OutputSelectionPolicy",
    "XYSelection",
    "RandomSelection",
    "MostFreeSelection",
    "InputSelectionPolicy",
    "FCFSInputSelection",
    "RandomInputSelection",
    "make_output_policy",
    "make_input_policy",
    "make_routing",
    "TURN_SETS",
    "available_algorithms",
    "canonical_name",
    "UnknownNameError",
    "is_synth_name",
    "parse_synth_name",
    "routing_from_synth_name",
    "synth_name",
]
