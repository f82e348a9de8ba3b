"""Fixture: the flat core carries the same cheap-optional-hook contract."""


class FlatWormholeSimulator:
    def __init__(self, obs=None):
        self._obs = obs

    def bad_released(self):
        self._obs.wake_events += 1  # unguarded: finding

    def good_released(self):
        obs = self._obs
        if obs is not None:
            obs.wake_events += 1


def make_simulator(obs=None):
    return FlatWormholeSimulator(obs)  # fine: the factory itself
