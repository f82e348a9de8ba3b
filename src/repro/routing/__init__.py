"""Routing algorithms derived from the turn model, plus baselines."""

from repro.routing.base import RoutingAlgorithm
from repro.routing.dimension_order import (
    DimensionOrderRouting,
    ecube_routing,
    xy_routing,
    yx_routing,
)
from repro.routing.hex_routing import (
    HexDimensionOrderRouting,
    HexNegativeFirstRouting,
)
from repro.routing.oct_routing import (
    OctDimensionOrderRouting,
    OctNegativeFirstRouting,
)
from repro.routing.ndim import (
    AllButOneNegativeFirstRouting,
    AllButOnePositiveLastRouting,
    abonf_nonminimal,
    abopl_nonminimal,
)
from repro.routing.negative_first import (
    NegativeFirstRouting,
    negative_first_nonminimal,
)
from repro.routing.north_last import NorthLastRouting, north_last_nonminimal
from repro.routing.pcube import PCubeRouting
from repro.routing.registry import (
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
from repro.routing.turn_table import ReachabilityOracle, TurnRestrictionRouting
from repro.routing.virtual_channels import (
    DatelineTorusRouting,
    LaneSplitRouting,
    o1turn_routing,
    yx_routing_order,
)
from repro.routing.west_first import WestFirstRouting, west_first_nonminimal

__all__ = [
    "RoutingAlgorithm",
    "DimensionOrderRouting",
    "xy_routing",
    "yx_routing",
    "HexNegativeFirstRouting",
    "HexDimensionOrderRouting",
    "OctNegativeFirstRouting",
    "OctDimensionOrderRouting",
    "ecube_routing",
    "WestFirstRouting",
    "west_first_nonminimal",
    "NorthLastRouting",
    "north_last_nonminimal",
    "NegativeFirstRouting",
    "negative_first_nonminimal",
    "AllButOneNegativeFirstRouting",
    "AllButOnePositiveLastRouting",
    "abonf_nonminimal",
    "abopl_nonminimal",
    "PCubeRouting",
    "FirstHopWraparoundRouting",
    "NegativeFirstTorusRouting",
    "TurnRestrictionRouting",
    "DatelineTorusRouting",
    "LaneSplitRouting",
    "o1turn_routing",
    "yx_routing_order",
    "ReachabilityOracle",
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
    "available_algorithms",
    "canonical_name",
    "UnknownNameError",
    "is_synth_name",
    "parse_synth_name",
    "routing_from_synth_name",
    "synth_name",
]
