"""Prefilled-route accounting: prewarmed answers are not misses.

``RouteCache`` distinguishes three lookup outcomes: ``hits`` (answered
from its own table), ``misses`` (a ``routing.route`` call happened
somewhere), and ``prefilled`` (answered by prewarmed state — a
:meth:`prefill`-installed entry's first fetch, or a source-chain answer
the shared table already held).  Before this accounting every warm
sweep reported ``entries == misses``, deflating its true hit rate.
"""

from repro.routing import make_routing
from repro.routing.cache import RouteCache
from repro.topology import Mesh2D


def build_route_table(routing):
    """Every (node, dest) decision of an arrival-channel-blind routing."""
    nodes = list(routing.topology.nodes())
    return {
        (node, dest): tuple(routing.route(None, node, dest))
        for node in nodes for dest in nodes if node != dest
    }


def _cache(mesh=None):
    mesh = mesh or Mesh2D(4, 4)
    return RouteCache(make_routing("west-first", mesh))


class TestPrefillAccounting:
    def test_first_fetch_of_prefilled_entry_counts_prefilled(self):
        cache = _cache()
        table = build_route_table(cache.routing)
        cache.prefill(table)
        assert cache.prefilled_entries == len(table)
        assert (cache.hits, cache.misses, cache.prefilled) == (0, 0, 0)
        first = cache.candidates(None, (0, 0), (3, 3))
        assert first == table[((0, 0), (3, 3))]
        assert (cache.hits, cache.misses, cache.prefilled) == (0, 0, 1)
        cache.candidates(None, (0, 0), (3, 3))
        assert (cache.hits, cache.misses, cache.prefilled) == (1, 0, 1)

    def test_unprefilled_lookup_still_counts_a_miss(self):
        cache = _cache()
        cache.prefill({((0, 0), (1, 1)): cache.candidates(None, (0, 0), (1, 1))})
        # The entry already existed (the candidates() call above filled
        # it), so prefill added nothing and the next fetch is a hit.
        assert cache.prefilled_entries == 0
        cache.candidates(None, (0, 0), (1, 1))
        assert (cache.hits, cache.misses, cache.prefilled) == (1, 1, 0)

    def test_hit_rate_counts_prefilled_as_warm(self):
        cache = _cache()
        cache.prefill(build_route_table(cache.routing))
        cache.candidates(None, (0, 0), (3, 3))
        cache.candidates(None, (1, 0), (3, 3))
        assert cache.hit_rate == 1.0

    def test_clear_forgets_pending_prefills(self):
        cache = _cache()
        cache.prefill(build_route_table(cache.routing))
        cache.clear()
        cache.candidates(None, (0, 0), (3, 3))
        assert (cache.misses, cache.prefilled) == (1, 0)

    def test_invalidate_channels_forgets_pending_prefills(self):
        mesh = Mesh2D(4, 4)
        cache = _cache(mesh)
        cache.prefill(build_route_table(cache.routing))
        dropped = cache.invalidate_channels(
            [ch for ch in mesh.channels() if ch.src == (2, 2)]
        )
        assert dropped > 0
        cache.candidates(None, (2, 2), (0, 0))
        assert (cache.misses, cache.prefilled) == (1, 0)


class TestSourceChainAccounting:
    def test_warm_source_answer_counts_prefilled_not_miss(self):
        mesh = Mesh2D(4, 4)
        source = RouteCache(make_routing("west-first", mesh))
        source.candidates(None, (2, 2), (0, 0))  # source miss, now warm
        consumer = RouteCache(
            make_routing("west-first", mesh), source=source
        )
        consumer.candidates(None, (2, 2), (0, 0))
        assert (consumer.hits, consumer.misses, consumer.prefilled) == (0, 0, 1)
        # The source answered from its own table: a hit there.
        assert (source.hits, source.misses) == (1, 1)

    def test_cold_source_propagates_the_miss(self):
        mesh = Mesh2D(4, 4)
        source = RouteCache(make_routing("west-first", mesh))
        consumer = RouteCache(
            make_routing("west-first", mesh), source=source
        )
        consumer.candidates(None, (2, 2), (0, 0))
        assert (consumer.misses, consumer.prefilled) == (1, 0)
        assert source.misses == 1

    def test_lookup_reports_warmth(self):
        mesh = Mesh2D(4, 4)
        cache = _cache(mesh)
        channels, warm = cache.lookup(None, (2, 2), (0, 0))
        assert channels and not warm
        channels, warm = cache.lookup(None, (2, 2), (0, 0))
        assert warm
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lookup_counts_prefilled_first_fetch(self):
        cache = _cache()
        cache.prefill(build_route_table(cache.routing))
        _, warm = cache.lookup(None, (0, 0), (3, 3))
        assert warm
        assert (cache.hits, cache.misses, cache.prefilled) == (0, 0, 1)
