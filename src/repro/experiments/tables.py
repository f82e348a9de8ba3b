"""Drivers for the paper's tables and in-text numeric claims.

* :func:`theorem1_table` — turn and cycle counts for n-dimensional meshes
  (Theorem 1 / Theorem 6).
* :func:`enumeration_table` — Section 3's bookkeeping: of the 16 ways to
  prohibit one turn per abstract cycle in a 2D mesh, 12 prevent deadlock
  and 3 are unique up to symmetry.
* :func:`adaptiveness_table` — Section 3.4's degree-of-adaptiveness
  metrics: average S_p/S_f exceeds 1/2, and S_p = 1 for at least half of
  the source-destination pairs.
* :func:`pcube_example_table` — the Section 5 worked example in a binary
  10-cube, digit for digit.
* :func:`path_length_table` — Section 6's average path lengths (10.61 vs
  11.34 hops in the mesh; 4.01 vs 4.27 in the 8-cube).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import format_table
from repro.core.adaptiveness import (
    average_adaptiveness_ratio,
    s_fully_adaptive,
    s_pcube,
)
from repro.core.channel_graph import restriction_is_deadlock_free
from repro.core.restrictions import TurnRestriction
from repro.core.turns import abstract_cycles, minimum_prohibited_turns, ninety_degree_turns
from repro.routing.pcube import PCubeRouting
from repro.routing.registry import make_routing
from repro.sim.ids import CompiledRoutes, shortest_path_counts
from repro.synth.enumeration import enumerate_candidates
from repro.synth.symmetry import classify_candidates
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D
from repro.traffic.permutations import make_pattern

__all__ = [
    "theorem1_table",
    "enumeration_table",
    "adaptiveness_table",
    "pcube_example_table",
    "path_length_table",
    "PCUBE_EXAMPLE",
]


def theorem1_table(max_dims: int = 6) -> str:
    """Turn counts per Theorem 1 for n = 2 .. max_dims."""
    headers = ["n", "turns 4n(n-1)", "cycles n(n-1)", "min prohibited", "fraction"]
    rows = []
    for n in range(2, max_dims + 1):
        turns = len(ninety_degree_turns(n))
        cycles = len(abstract_cycles(n))
        minimum = minimum_prohibited_turns(n)
        rows.append([n, turns, cycles, minimum, f"{minimum / turns:.2f}"])
    return format_table(headers, rows)


def enumeration_table() -> Tuple[int, int, int, str]:
    """Section 3's counts for the 2D mesh.

    Returns:
        (candidates, deadlock_free, unique_classes, rendered table).
    """
    mesh = Mesh2D(3, 3)
    candidates, _ = enumerate_candidates(2)
    verdicts = [
        restriction_is_deadlock_free(mesh, TurnRestriction(2, turns)) for turns in candidates
    ]
    free = [turns for turns, ok in zip(candidates, verdicts) if ok]
    unique = classify_candidates(free, 2)
    headers = ["prohibited pair", "deadlock free"]
    rows = []
    for turns, ok in zip(candidates, verdicts):
        label = " + ".join(sorted(str(t) for t in turns))
        rows.append([label, "yes" if ok else "NO"])
    table = format_table(headers, rows)
    summary = (
        f"{len(candidates)} ways to prohibit one turn per cycle; "
        f"{len(free)} prevent deadlock; {len(unique)} unique up to symmetry"
    )
    return len(candidates), len(free), len(unique), f"{table}\n{summary}"


def adaptiveness_table(side: int = 6) -> str:
    """Section 3.4 metrics on a ``side x side`` mesh."""
    mesh = Mesh2D(side, side)
    headers = [
        "algorithm",
        "avg S_p/S_f",
        "pairs with S_p=1",
        "fraction S_p=1",
    ]
    rows = []
    nodes = list(mesh.nodes())
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    for name in ("west-first", "north-last", "negative-first", "xy"):
        compiled = CompiledRoutes(make_routing(name, mesh))
        counts = {
            dst: dict(zip(nodes, shortest_path_counts(compiled, d)))
            for d, dst in enumerate(nodes)
        }
        ratio = average_adaptiveness_ratio(counts)
        singles = sum(1 for s, d in pairs if counts[d][s] == 1)
        rows.append(
            [name, f"{ratio:.3f}", singles, f"{singles / len(pairs):.2f}"]
        )
    return format_table(headers, rows)


# -- Section 5 worked example -------------------------------------------

#: The paper's 10-cube example: source, destination, the dimension taken
#: at each hop, and the expected "choices" column (minimal, +nonminimal).
PCUBE_EXAMPLE = {
    "source": "1011010100",
    "destination": "0010111001",
    "dimensions_taken": (2, 9, 6, 5, 0, 3),
    "expected_choices": ((3, 2), (2, 2), (1, 2), (3, 0), (2, 0), (1, 0)),
    "expected_shortest_paths": 36,
}


def _node_from_paper_string(bits: str) -> tuple:
    """Parse the paper's numeric address notation (dimension 0 = LSB)."""
    return tuple(int(ch) for ch in reversed(bits))


def _node_to_paper_string(node: tuple) -> str:
    return "".join(str(bit) for bit in reversed(node))


@dataclass(frozen=True)
class PCubeTableRow:
    """One row of the Section 5 table."""

    address: str
    choices: int
    extra_choices: int
    dimension_taken: int

    def choices_label(self) -> str:
        extra = f"(+{self.extra_choices})" if self.extra_choices else ""
        return f"{self.choices}{extra}"


def pcube_example_table() -> Tuple[List[PCubeTableRow], str]:
    """Reproduce the Section 5 table for the binary 10-cube example.

    Walks the paper's exact path, recording the number of p-cube routing
    choices (and the extra nonminimal choices) at each transmitting node.

    Returns:
        (rows, rendered table).  The final destination row carries
        dimension ``-1`` and zero choices.
    """
    cube = Hypercube(10)
    routing = make_routing("p-cube", cube)
    nonminimal = PCubeRouting(cube)
    src = _node_from_paper_string(PCUBE_EXAMPLE["source"])
    dest = _node_from_paper_string(PCUBE_EXAMPLE["destination"])

    rows: List[PCubeTableRow] = []
    node = src
    for dim in PCUBE_EXAMPLE["dimensions_taken"]:
        # The minimal choices are the p-cube turn set's; Figure 12's
        # nonminimal rule offers those first, then its extra ones.
        minimal = len(routing.route(None, node, dest))
        offered = nonminimal.route_dims(node, dest)
        rows.append(
            PCubeTableRow(
                _node_to_paper_string(node), minimal, len(offered) - minimal, dim
            )
        )
        if dim not in offered:
            raise AssertionError(
                f"paper path takes dimension {dim} at {node}, but p-cube "
                "routing does not offer it"
            )
        node = node[:dim] + (1 - node[dim],) + node[dim + 1 :]
    if node != dest:
        raise AssertionError("paper path did not end at the destination")

    headers = ["address", "choices", "dimension taken", "comment"]
    phase_one_hops = sum(1 for s, d in zip(src, dest) if s == 1 and d == 0)
    table_rows = []
    for index, row in enumerate(rows):
        if index == 0:
            comment = "source"
        elif index < phase_one_hops:
            comment = "phase 1"
        else:
            comment = "phase 2"
        table_rows.append(
            [row.address, row.choices_label(), row.dimension_taken, comment]
        )
    table_rows.append([_node_to_paper_string(dest), "", "", "destination"])
    rendered = format_table(headers, table_rows)
    compiled = CompiledRoutes(routing)
    node_id = compiled.index.node_id
    shortest = shortest_path_counts(compiled, node_id[dest])[node_id[src]]
    closed = s_pcube(src, dest)
    rendered += (
        f"\nshortest paths: enumerated={shortest} closed-form h1!h0!={closed} "
        f"fully adaptive h!={s_fully_adaptive(src, dest)}"
    )
    return rows, rendered


def s_pcube_phase2(src: tuple, dest: tuple) -> int:
    """Number of phase-two hops (bits to set) for a p-cube route."""
    return sum(1 for s, d in zip(src, dest) if s == 0 and d == 1)


def path_length_table(mesh_side: int = 16, cube_dims: int = 8) -> str:
    """Section 6's average minimal path lengths per traffic pattern."""
    mesh = Mesh2D(mesh_side, mesh_side)
    cube = Hypercube(cube_dims)
    headers = ["topology", "pattern", "avg minimal hops"]
    rows = []
    for topology, label, patterns in (
        (mesh, f"{mesh_side}x{mesh_side} mesh", ("uniform", "transpose")),
        (cube, f"{cube_dims}-cube", ("uniform", "transpose", "reverse-flip")),
    ):
        for name in patterns:
            pattern = make_pattern(name, topology)
            rows.append([label, name, f"{pattern.mean_minimal_hops():.2f}"])
    return format_table(headers, rows)
