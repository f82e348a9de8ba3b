"""Fixture: hook accesses that violate the cheap-optional-hook contract."""


class WormholeSimulator:
    def __init__(self, obs=None):
        self._obs = obs
        self._resilience = None

    def bad_direct(self):
        self._obs.on_cycle_end(0)  # unguarded: finding

    def bad_local(self):
        obs = self._obs
        obs.on_allocate(1)  # unguarded via local alias: finding

    def good_guarded(self):
        if self._obs is not None:
            self._obs.on_cycle_end(0)

    def good_local(self):
        obs = self._obs
        if obs is not None:
            obs.on_allocate(1)

    def good_assert(self):
        ctrl = self._resilience
        assert ctrl is not None
        ctrl.tick(0)

    def good_boolop(self):
        return self._obs is not None and self._obs.enabled


def make_simulator(obs=None):
    return WormholeSimulator(obs)  # fine: the factory itself
