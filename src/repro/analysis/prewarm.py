"""Warm sweep state: shared topologies, routings, and route tables.

Every point of a sweep grid names the same handful of ``(topology,
algorithm)`` pairs, yet the executor historically rebuilt all of it per
point: re-parse the topology, reconstruct the routing algorithm, and
re-derive every routing decision the previous point had already made.
This module is the amortization layer the :class:`~repro.analysis
.executor.SweepExecutor` routes through instead:

* :class:`WarmContext` — the reusable live objects for one
  ``(topology, algorithm)`` key: the parsed topology (with its
  ``out_channels`` caches hot), the routing instance, a lazily built
  pattern cache, and the key's shared routing state — one
  :class:`~repro.sim.ids.CompiledRoutes` (channel index plus routing
  decisions as id tuples) that every simulation of the key shares by
  reference.  It fills lazily, so a routing state any earlier point
  visited never calls ``routing.route`` again and nothing is computed
  that no point asks for.
* :func:`get_warm_context` — a bounded per-process context cache.  The
  executor's serial path uses it directly; each worker process fills
  its own copy the same way, in parallel.

Sharing is bit-safe by construction: topologies, routing algorithms,
and traffic patterns are immutable after construction, and a cached
routing decision is a pure function of its key, so a warmed run is
indistinguishable from a cold one (the executor's identity tests
enforce exactly that).  Points with a resilience spec share it too: a
fault never writes to the healthy table, it derives a degraded
restriction of it (:meth:`~repro.sim.ids.CompiledRoutes.restricted`),
and the healthy table's deadlock-freedom proof, taken by the key's first
faulted point, stays on it for every later one
(:func:`repro.verify.certify_table`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import canonical_name, make_routing
from repro.sim.ids import CompiledRoutes
from repro.topology.base import Topology
from repro.traffic.patterns import TrafficPattern
from repro.traffic.permutations import make_pattern

__all__ = [
    "WarmContext",
    "warm_key",
    "get_warm_context",
    "peek_warm_context",
    "clear_warm_contexts",
    "warm_context_count",
]

#: Contexts kept per process; oldest-touched is evicted beyond this.
MAX_WARM_CONTEXTS = 16

#: A warm-context key: canonical (topology spec, routing name).
WarmKey = Tuple[str, str]


def warm_key(topology: str, routing: str) -> WarmKey:
    """The canonical context key for a (topology spec, routing name)."""
    return (topology.strip().lower(), canonical_name(routing))


class WarmContext:
    """Reusable state for every point sharing one (topology, routing).

    Attributes:
        key: the canonical ``(topology spec, routing name)`` pair.
        topology: the parsed topology (shared; immutable).
        routing: the routing algorithm instance (shared; immutable).
        compiled_routes: the key's shared compiled routing program,
            filled lazily by the simulations that share it.
    """

    __slots__ = ("key", "topology", "routing", "compiled_routes", "_patterns")

    def __init__(self, key: WarmKey, topology: Topology,
                 routing: RoutingAlgorithm) -> None:
        self.key = key
        self.topology = topology
        self.routing = routing
        self.compiled_routes = CompiledRoutes(routing)
        self._patterns: Dict[str, TrafficPattern] = {}

    def pattern(self, name: str) -> TrafficPattern:
        """The shared pattern instance for ``name`` (patterns are
        stateless — every RNG they use is passed in per call)."""
        canonical = canonical_name(name)
        pattern = self._patterns.get(canonical)
        if pattern is None:
            pattern = make_pattern(canonical, self.topology)
            self._patterns[canonical] = pattern
        return pattern

    def __repr__(self) -> str:
        return (
            f"WarmContext({self.key!r}, "
            f"compiled_entries={len(self.compiled_routes)})"
        )


_CONTEXTS: Dict[WarmKey, WarmContext] = {}


def get_warm_context(topology: str, routing: str) -> WarmContext:
    """The process-wide warm context for a (topology, routing) pair.

    Builds and caches it on first request; later requests return the
    same object, so its route table keeps accumulating.  The cache is
    bounded (:data:`MAX_WARM_CONTEXTS`); the least recently requested
    context is dropped beyond that.
    """
    from repro.topology.spec import parse_topology

    key = warm_key(topology, routing)
    context = _CONTEXTS.pop(key, None)
    if context is None:
        parsed = parse_topology(key[0])
        context = WarmContext(key, parsed, make_routing(key[1], parsed))
    _CONTEXTS[key] = context  # re-insert: dict order doubles as LRU
    while len(_CONTEXTS) > MAX_WARM_CONTEXTS:
        del _CONTEXTS[next(iter(_CONTEXTS))]
    return context


def peek_warm_context(topology: str, routing: str) -> Optional[WarmContext]:
    """The cached context for a pair, or ``None`` — never builds one."""
    return _CONTEXTS.get(warm_key(topology, routing))


def clear_warm_contexts() -> None:
    """Drop every cached context (tests; long-lived servers)."""
    _CONTEXTS.clear()


def warm_context_count() -> int:
    """How many contexts this process currently caches."""
    return len(_CONTEXTS)
