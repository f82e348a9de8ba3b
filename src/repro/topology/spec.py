"""Topology spec strings: ``mesh:16x16``, ``cube:8``, ``torus:4x2``.

A spec string is the portable, hashable name of a topology.  It is what
the CLI accepts on the command line, what :class:`repro.api.ExperimentSpec`
stores so experiment points can be pickled across worker processes, and
what the result cache keys on.  :func:`parse_topology` turns a spec into
a topology instance; :func:`topology_spec` is its inverse.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.topology.hexagonal import HexMesh
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh, Mesh2D
from repro.topology.octagonal import OctMesh
from repro.topology.torus import Torus

__all__ = ["parse_topology", "topology_spec"]


def parse_topology(spec: str) -> Topology:
    """Parse a topology spec: ``mesh:16x16``, ``cube:8``, ``torus:4x2``.

    Mesh specs take per-dimension radixes separated by ``x``; cube specs
    take the dimension count; torus specs take ``k x n``; hexagonal and
    octagonal meshes take ``m x n`` (``hex:6x6``, ``oct:6x6``).
    """
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"topology spec needs a ':<size>' part: {spec!r}")
    if kind == "mesh":
        dims = tuple(int(part) for part in arg.split("x"))
        if len(dims) == 2:
            return Mesh2D(*dims)
        return Mesh(dims)
    if kind == "cube":
        return Hypercube(int(arg))
    if kind == "torus":
        k, _, n = arg.partition("x")
        return Torus(int(k), int(n or 2))
    if kind == "hex":
        m, _, n = arg.partition("x")
        return HexMesh(int(m), int(n or m))
    if kind == "oct":
        m, _, n = arg.partition("x")
        return OctMesh(int(m), int(n or m))
    raise ValueError(
        f"unknown topology kind {kind!r} (use mesh/cube/torus/hex/oct)"
    )


def topology_spec(topology: Topology) -> str:
    """The spec string that :func:`parse_topology` would parse back.

    Round-trips every topology the parser produces:
    ``parse_topology(topology_spec(t))`` equals ``t`` in kind and shape.
    """
    if isinstance(topology, Hypercube):
        return f"cube:{topology.n_dims}"
    if isinstance(topology, Torus):
        return f"torus:{topology.shape[0]}x{topology.n_dims}"
    if isinstance(topology, HexMesh):
        return f"hex:{topology.shape[0]}x{topology.shape[1]}"
    if isinstance(topology, OctMesh):
        return f"oct:{topology.shape[0]}x{topology.shape[1]}"
    if isinstance(topology, Mesh):
        return "mesh:" + "x".join(str(k) for k in topology.shape)
    raise TypeError(
        f"no spec string for topology type {type(topology).__name__}"
    )
