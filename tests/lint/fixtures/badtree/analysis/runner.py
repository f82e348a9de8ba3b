"""Fixture: simulator construction sites beside the factory."""

import repro.sim.engine as engine
from repro.sim.engine import WormholeSimulator


def run_point(routing, workload):
    return WormholeSimulator(routing, workload).run()  # finding


def run_qualified(routing, workload):
    return engine.WormholeSimulator(routing, workload).run()  # finding


def run_right(routing, workload):
    return engine.make_simulator(routing, workload).run()  # fine
