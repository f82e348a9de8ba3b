"""Public-API smoke tests: exports, reprs, and documentation hygiene."""

import inspect

import pytest

import repro
import repro.analysis as analysis
import repro.core as core
import repro.routing as routing
import repro.sim as sim
import repro.topology as topology
import repro.traffic as traffic


PACKAGES = [core, topology, routing, sim, traffic, analysis]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, package):
        for name in package.__all__:
            assert getattr(package, name) is not None, name

    def test_one_engine_class_and_no_route_cache(self):
        # One simulator class; the second core, its channel-state
        # objects and the object-keyed route cache are not public names
        # any more (the oracle under tests/sim keeps its own copies).
        for name in ("FlatWormholeSimulator", "FlatCoreUnsupported",
                     "ChannelState", "NETWORK", "INJECTION", "EJECTION"):
            assert not hasattr(sim, name), name
        assert not hasattr(routing, "RouteCache")
        simulators = [
            name for name in sim.__all__
            if inspect.isclass(getattr(sim, name)) and name.endswith("Simulator")
        ]
        assert simulators == ["WormholeSimulator"]

    def test_version(self):
        assert repro.__version__

    def test_experiments_package(self):
        import repro.experiments as experiments

        for name in experiments.__all__:
            assert getattr(experiments, name) is not None, name


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_public_callables_documented(self, package):
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package.__name__}.{name} lacks a docstring"

    def test_modules_documented(self):
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = __import__(info.name, fromlist=["_"])
            assert module.__doc__, f"{info.name} lacks a module docstring"


class TestReprs:
    def test_topology_reprs(self):
        from repro.topology import Hypercube, Mesh2D, Torus

        assert "4x4" in repr(Mesh2D(4, 4))
        assert "Hypercube" in repr(Hypercube(3))
        assert "Torus" in repr(Torus(4, 2))

    def test_channel_str(self):
        from repro.topology import Mesh2D
        from repro.core.directions import EAST

        mesh = Mesh2D(3, 3)
        channel = mesh.channel_in_direction((0, 0), EAST)
        assert "(0, 0)" in str(channel) and "(1, 0)" in str(channel)

    def test_wraparound_str_marker(self):
        from repro.topology import Torus

        torus = Torus(4, 1)
        wrap = next(ch for ch in torus.channels() if ch.wraparound)
        assert "~" in str(wrap)

    def test_turn_restriction_str(self):
        from repro.core.restrictions import west_first_restriction

        text = str(west_first_restriction())
        assert "west-first" in text
        assert "north->west" in text

    def test_offset_helper(self):
        from repro.topology import Mesh2D

        mesh = Mesh2D(4, 4)
        assert mesh.offset((1, 2), (3, 0)) == (2, -2)
