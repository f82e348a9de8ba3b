"""Pinned faulted runs for every algorithm ``build_controller`` degrades.

The golden scenarios rebuild only ``west-first-nonminimal``; here every
minimal mesh registry algorithm (degraded by filtering the healthy
decisions) and all five ``*-nonminimal`` turn tables (rebuilt on each
degraded topology) run on ``mesh:6x6`` under four seed-drawn faults,
drop policy, every configuration re-proved — plus the 3D turn tables on
``mesh:3x3x3``.  Each run's result digest and resilience ledger digest
must match the committed values byte for byte, whatever way the
degraded route tables come to be compiled.
"""

import pytest

from repro.analysis.executor import ConfigSpec, ExperimentSpec, ResilienceSpec
from repro.sim.config import SimulationConfig
from repro.sim.digest import result_digest

from tests.sim.golden_scenarios import summary_digest

CONFIG = ConfigSpec.from_config(
    SimulationConfig(warmup_cycles=200, measure_cycles=1200, drain_cycles=600)
)

FILTERED = (
    "xy", "yx", "dimension-order", "west-first", "north-last",
    "negative-first", "abonf", "abopl",
)
REBUILT = (
    "west-first-nonminimal", "north-last-nonminimal",
    "negative-first-nonminimal", "abonf-nonminimal", "abopl-nonminimal",
)

#: (topology, algorithm) -> (result digest, resilience ledger digest)
PINNED = {
    ('mesh:6x6', 'xy'): (
        '6d6f6a1ded718cec8f40b17cc1fc1e9e8c521e60bb5964e2f725ad65d1783825',
        '4ff30355c8685adbde0fad898ecd8a6ca82a1cbae2a97bcf735faa7afe486536',
    ),
    ('mesh:6x6', 'yx'): (
        '46a228892ae0f3cfd305fa1170039661a640751e6169e625e3c4635c4ba380c5',
        '02e16514c193db4c753547ea70fe19c87071784cd384ab68105015df78336224',
    ),
    ('mesh:6x6', 'dimension-order'): (
        '6d6f6a1ded718cec8f40b17cc1fc1e9e8c521e60bb5964e2f725ad65d1783825',
        '4ff30355c8685adbde0fad898ecd8a6ca82a1cbae2a97bcf735faa7afe486536',
    ),
    ('mesh:6x6', 'west-first'): (
        'eb748991ba9e5bbcaeebb85613de5c02fd6ec02d674e712aaa5e473598d9ce24',
        'fe4b6911feecf0dd4fdb06e1beb300f9217bcaceb230085a90e103f25bcb711d',
    ),
    ('mesh:6x6', 'north-last'): (
        'dc2cc8bd1cb0b5164e4eb8ce42620d25af2f212850f837f27c520307921f0c34',
        '26675b944c7884ac515dc477b7499ad7c02241bdb81df5367b3efd9fa0099ae3',
    ),
    ('mesh:6x6', 'negative-first'): (
        '3f48f348b7261ad7302c8ad04b2d1c8d2c62870f58a1b55e1c07e2ff9ac1571a',
        '45d56625bb02cd24171afab5ab6e373dcbe305a8decc0328c95c785b35ebe9b8',
    ),
    ('mesh:6x6', 'abonf'): (
        'eb748991ba9e5bbcaeebb85613de5c02fd6ec02d674e712aaa5e473598d9ce24',
        'fe4b6911feecf0dd4fdb06e1beb300f9217bcaceb230085a90e103f25bcb711d',
    ),
    ('mesh:6x6', 'abopl'): (
        'dc2cc8bd1cb0b5164e4eb8ce42620d25af2f212850f837f27c520307921f0c34',
        '26675b944c7884ac515dc477b7499ad7c02241bdb81df5367b3efd9fa0099ae3',
    ),
    ('mesh:6x6', 'west-first-nonminimal'): (
        '4fbe165841330e504d417534230b73e2530d7c99753a4c749eacf932fa44e093',
        '1936e7dda6f41249056b187562ea4890ea237cc2d81b281f4ecf06282e8ba802',
    ),
    ('mesh:6x6', 'north-last-nonminimal'): (
        '4111587f09f79fec80ceff6e7f46a4d05c6a4607045258b7904661bb4a439115',
        '78d64a2116acdf52017c93e8ea6aeb6f5ecee284fea0c9553c44539b8093c541',
    ),
    ('mesh:6x6', 'negative-first-nonminimal'): (
        'bd61ea047ca65b9db6648fd9e5fb37f9e14b95b0a8fdfe0a34eeaff5af735bf8',
        '8f0177ec39278cdc86ad859b4e1d69e6eca35132f77007f98453f2881a57d680',
    ),
    ('mesh:6x6', 'abonf-nonminimal'): (
        '4fbe165841330e504d417534230b73e2530d7c99753a4c749eacf932fa44e093',
        '1936e7dda6f41249056b187562ea4890ea237cc2d81b281f4ecf06282e8ba802',
    ),
    ('mesh:6x6', 'abopl-nonminimal'): (
        '4111587f09f79fec80ceff6e7f46a4d05c6a4607045258b7904661bb4a439115',
        '78d64a2116acdf52017c93e8ea6aeb6f5ecee284fea0c9553c44539b8093c541',
    ),
    ('mesh:3x3x3', 'abonf-nonminimal'): (
        '0722d0ba5c73c7fc8344051ccbcade88a5161a7b25df427472056522ba7e8ac1',
        '9fd000c968bfff2c5dea82134f594f54e9559a86ce68a40214113116486ecc1f',
    ),
    ('mesh:3x3x3', 'abopl-nonminimal'): (
        '9d05f00ca34f38b3ea5c5b413bfb20e7ba1531b8b842c6c3db83a84bc96566a0',
        '610463b8d51e522715abb2481f3ea85e4f329e7ff9619213b50977b3da615058',
    ),
}


def faulted_spec(topology, name):
    return ExperimentSpec(
        topology=topology, routing=name, pattern="uniform", load=0.15,
        sizes=((4, 0.5), (16, 0.5)), config=CONFIG, seed=7,
        resilience=ResilienceSpec(fault_count=4, fault_seed=5, policy="drop"),
    )


def test_pins_cover_every_degraded_algorithm():
    expected = {("mesh:6x6", name) for name in FILTERED + REBUILT}
    expected |= {("mesh:3x3x3", "abonf-nonminimal"),
                 ("mesh:3x3x3", "abopl-nonminimal")}
    assert set(PINNED) == expected


@pytest.mark.parametrize("topology, name", sorted(PINNED))
def test_faulted_run_matches_its_pin(topology, name):
    full = faulted_spec(topology, name).run_full()
    ledger = full.resilience
    assert ledger["faults_applied"] == ledger["recertifications"] == 4
    assert (result_digest(full.result), summary_digest(ledger)) == PINNED[
        (topology, name)
    ]
