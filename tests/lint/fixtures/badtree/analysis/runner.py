"""Fixture: simulator construction sites beside the factory."""

import repro.sim.flatcore as flatcore
from repro.sim.engine import WormholeSimulator


def run_point(routing, workload):
    return WormholeSimulator(routing, workload).run()  # finding


def run_flat(routing, workload):
    return flatcore.FlatWormholeSimulator(routing, workload).run()  # finding


def run_right(routing, workload):
    return flatcore.make_simulator(routing, workload).run()  # fine
