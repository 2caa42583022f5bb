"""Dispatch-stream goldens: the engine's determinism contract, pinned.

Every row runs one workload with the engine's ``trace`` hook attached and
compares the SHA-256 digest of the ``(time, priority, seq, event type)``
dispatch stream (:func:`repro.sim.tracediff.stream_digest`) plus its
length against a committed value.  A refactor of the event calendar, the
run loops or the timeout free list must leave every row unchanged: the
digest fixes the full schedule, not just the results derived from it.

The rows cover every registered scenario, the fault layer (crash,
degrade, network delay and partition, client churn, stacked faults),
every registered mechanism on a Poisson-arrival storm with and without an
OST crash, the centralized ``sdn``/``vc`` mechanisms including a crash in the
middle of a control round, and three pure-engine setups that stress event
handoffs, condition events, and interrupts, lazy cancellation and kills.
Every row is checked with the timeout free list on and off: recycling
timeouts must not move a single dispatch.  Re-recording a digest is a
schedule change and needs a CHANGES.md line naming the cause.  A change
that does the same simulation with different events (the OSS idle pool's
one wake per trigger) moves rows here while the service records, figure
CSVs and campaign rows pinned by ``test_service_goldens.py`` stay put.
"""

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.core.mechanism import MECHANISMS
from repro.scenarios import REGISTRY
from repro.sim import Environment
from repro.sim.events import Interrupt
from repro.sim.tracediff import stream_digest, trace_scenario


def _faulted(fault, params):
    return (
        REGISTRY.build("quickstart", file_mib=16.0, procs=2, capacity_mib_s=256.0)
        .with_run(seed=3)
        .with_fault(fault, params)
    )


def _stacked_faults():
    spec = _faulted("ost-crash", {"start_s": 0.05, "duration_s": 0.05})
    return spec.with_fault(
        "net-delay", {"start_s": 0.12, "duration_s": 0.05, "factor": 3.0}
    )


def _centralized(scenario, mechanism, params, **kwargs):
    return REGISTRY.build(scenario, **kwargs).with_policy(
        mechanism=mechanism, mechanism_params=params
    )


def _burst_storm(mechanism, params):
    return _centralized(
        "burst-storm",
        mechanism,
        params,
        n_jobs=3,
        duration_s=2.0,
        data_scale=0.05,
        time_scale=0.05,
    )


def _mid_round_crash(mechanism, params):
    # The crash lands at 0.45 s, mid-round, with an sdn push (decided at
    # 0.4 s, landing at 0.55 s under 0.15 s latency) in flight.
    return _centralized("quickstart", mechanism, params, duration=3.0).with_fault(
        "ost-crash", {"start_s": 0.45, "duration_s": 0.4}
    )


def _mechanism_storm(mechanism):
    return (
        REGISTRY.build("poisson-storm")
        .with_run(duration_s=0.5)
        .with_policy(mechanism=mechanism, mechanism_params={})
    )


def _mechanism_crash(mechanism):
    return _mechanism_storm(mechanism).with_fault(
        "ost-crash", {"start_s": 0.1, "duration_s": 0.15}
    )


SDN = {"ctrl_latency_s": 0.15}

#: Registered scenarios traced at their defaults over a short horizon.
SHORT_SCENARIOS = (
    "allocation",
    "client-swarm",
    "diurnal-mix",
    "elastic-churn",
    "hetero-osts",
    "poisson-storm",
    "recompensation",
    "redistribution",
    "scale-500ost",
    "trace-replay",
)

#: Every registered mechanism; ``adaptbf`` is the scenarios' default.
MECHANISM_NAMES = ("adaptbf", "adaptbf-ewma", "none", "pid", "sdn", "static", "vc")

#: Row name → zero-argument builder of the scenario spec to trace.
SCENARIO_CASES = {
    "quickstart": lambda: REGISTRY.build("quickstart").with_run(duration_s=1.0),
    "multiost": lambda: REGISTRY.build("multiost").with_run(duration_s=0.5),
    "burst-storm": lambda: REGISTRY.build("burst-storm").with_run(duration_s=0.5),
    "fault/ost-crash": lambda: _faulted(
        "ost-crash", {"start_s": 0.05, "duration_s": 0.1}
    ),
    "fault/ost-degrade": lambda: _faulted(
        "ost-degrade", {"start_s": 0.05, "duration_s": 0.1, "factor": 0.2}
    ),
    "fault/net-delay": lambda: _faulted(
        "net-delay", {"start_s": 0.05, "duration_s": 0.1, "factor": 5.0}
    ),
    "fault/net-partition": lambda: _faulted(
        "net-delay", {"start_s": 0.05, "duration_s": 0.1, "partition": True}
    ),
    "fault/client-churn": lambda: _faulted(
        "client-churn", {"start_s": 0.05, "duration_s": 0.1, "leaves": 1}
    ),
    "fault/stacked": _stacked_faults,
    "sdn/quickstart": lambda: _centralized(
        "quickstart", "sdn", SDN, file_mib=32.0, procs=2
    ),
    "sdn/burst-storm": lambda: _burst_storm("sdn", SDN),
    "sdn/ost-crash": lambda: _mid_round_crash("sdn", SDN),
    "vc/quickstart": lambda: _centralized(
        "quickstart", "vc", {}, file_mib=32.0, procs=2
    ),
    "vc/burst-storm": lambda: _burst_storm("vc", {}),
    "vc/ost-crash": lambda: _mid_round_crash("vc", {}),
}
SCENARIO_CASES.update(
    {
        name: (lambda name=name: REGISTRY.build(name).with_run(duration_s=0.5))
        for name in SHORT_SCENARIOS
    }
)
for _mechanism in MECHANISM_NAMES:
    if _mechanism != "adaptbf":  # the plain poisson-storm row
        SCENARIO_CASES[f"mechanism/{_mechanism}/poisson-storm"] = (
            lambda m=_mechanism: _mechanism_storm(m)
        )
    SCENARIO_CASES[f"mechanism/{_mechanism}/ost-crash"] = (
        lambda m=_mechanism: _mechanism_crash(m)
    )


def _handoff_mesh(env):
    """Succeed-chains interleaved with timers."""

    def producer(mailbox):
        for k in range(40):
            yield env.timeout(0.001 + (k % 3) * 0.0005)
            mailbox.pop().succeed(k)

    def consumer(mailbox):
        for _ in range(40):
            box = env.event()
            mailbox.append(box)
            yield box

    for _ in range(10):
        mailbox = []
        env.process(consumer(mailbox))
        env.process(producer(mailbox))


def _condition_fan(env):
    """``any_of``/``all_of`` over shared timeouts."""

    def waiter():
        for _ in range(12):
            events = [env.timeout(0.001 + (j % 3) * 0.0007) for j in range(6)]
            yield env.any_of(events)
            yield env.all_of(events)

    for _ in range(8):
        env.process(waiter())


def _interrupt_kill(env):
    """Interrupted sleepers, cancelled watchdogs and a killed process.

    Every interrupt leaves the sleeper's timer to fire with no waiter, and
    every cancelled watchdog stays in the calendar as a dead entry.
    """

    def sleeper(k):
        for i in range(60):
            watchdog = env.timeout(0.01)
            try:
                yield env.timeout(0.001 * (1 + (k + i) % 4))
            except Interrupt:
                pass
            watchdog.cancel()

    def poker(victims):
        for i in range(25):
            yield env.timeout(0.0015)
            victim = victims[i % len(victims)]
            if victim.is_alive:
                victim.interrupt(i)
        yield env.timeout(0.0015)
        victims[0].kill()

    env.process(poker([env.process(sleeper(k)) for k in range(6)]))


#: Row name → ``setup(env)`` spawning pure-engine processes.
MICRO_CASES = {
    "micro/handoff-mesh": _handoff_mesh,
    "micro/condition-fan": _condition_fan,
    "micro/interrupt-kill": _interrupt_kill,
}

#: Row name → (dispatched events, SHA-256 of the dispatch stream).
GOLDENS = {
    "allocation": (
        4368,
        "83b8ddad059e8841ed2d491b0680c0502d26386ea24e0b1e253b3493ce93d3bd",
    ),
    "burst-storm": (
        3000,
        "5a4b74a8eb4c7d8044529268fe01d2845c947df5de62f2d3a8029ffb42fe1ac8",
    ),
    "client-swarm": (
        18772,
        "a63a74c20774eef050cc376e1fbb05d3034a683609afbabde7a84d832ab38215",
    ),
    "diurnal-mix": (
        3270,
        "f83f91008fba022b9a4edcf3b27da37e91fa9ff723cb440c58539f85a0168ee0",
    ),
    "elastic-churn": (
        1136,
        "09cb021a7fdbd29684da6db281a9d2d1f24fa07b90882638c27e4e0e9c9530c2",
    ),
    "fault/client-churn": (
        577,
        "6e83d81dcdde34a96213192d4fbb542472f902c11a5f4372d65a0b016808851e",
    ),
    "fault/net-delay": (
        506,
        "f058e28ed4107ab1249c7907a41f6a8d1a803c18dfe5e79655e606f2221be3a5",
    ),
    "fault/net-partition": (
        575,
        "08568f7b56520dd321acf439d940dc64f31551753e737c05992dcab95a287af7",
    ),
    "fault/ost-crash": (
        617,
        "b6229fc4a089972bae9965fa9c5040b1fa91cf19d7ddfed1a4c706abfcba5bbf",
    ),
    "fault/ost-degrade": (
        570,
        "515228e839fb3e6e4f314ad9d016a3c88071067bf12e608e45e3974f53b178ea",
    ),
    "fault/stacked": (
        616,
        "5b262628d00d81bb3bd85ddfc762aa75db986b06ee3aff5beb3401d5cae61efc",
    ),
    "hetero-osts": (
        5313,
        "1e713d430f6fb4545f98908045095d13fb25d98fc42aadbd59684bf78d4963da",
    ),
    "mechanism/adaptbf-ewma/ost-crash": (
        2037,
        "55f23af660c7447dcf3215608764a3f98b17be17a775d8fecfc830e0634368d7",
    ),
    "mechanism/adaptbf-ewma/poisson-storm": (
        3004,
        "03f244386b02c9e006c5714644d4676a62cebd0657fe7c82bdd2458dbb57a26f",
    ),
    "mechanism/adaptbf/ost-crash": (
        1948,
        "644594fbeb43c13e95bf481c1f7a21b9ecf3289014c7f294ffdcbd2bda589a98",
    ),
    "mechanism/none/ost-crash": (
        2388,
        "c1cc35811054d51318e1aeeb7f458555fdff56d44ccd4f8e52632463a8423fa4",
    ),
    "mechanism/none/poisson-storm": (
        3371,
        "59a157808ac89040e68fe93fd80c6b87a1d769d721fddea3ce843c4d31d075ef",
    ),
    "mechanism/pid/ost-crash": (
        1277,
        "b5842f4370956b69867116e61e3c4f2e642bbd698479ad4a6d967f39c5b3c9ad",
    ),
    "mechanism/pid/poisson-storm": (
        1580,
        "6d9320a158b32e955e53c53eed60b103a01fc34136707bc2a0fb45013ca58d90",
    ),
    "mechanism/sdn/ost-crash": (
        3169,
        "200368c2d416326cfa51938b8f05c86352cc424aa1f7ec1c0471ee72fb4166ca",
    ),
    "mechanism/sdn/poisson-storm": (
        4846,
        "69901ca65393c7596b19cd628f20387775cc6e9f44e1e95849b7beb301a8e858",
    ),
    "mechanism/static/ost-crash": (
        822,
        "217a7bac8a47271132a8c9649856af547e525b7b22f3c8b481f539f82fbc421d",
    ),
    "mechanism/static/poisson-storm": (
        982,
        "cc3374662cdc5c3b13ad5f136d55e1f8c3ba2ba0e7dc6bee4a5b84abfdad18d9",
    ),
    "mechanism/vc/ost-crash": (
        2404,
        "398149a4700518fb4cb20975f2212ff06f03c0d31e76890e7867934bbf0a8c43",
    ),
    "mechanism/vc/poisson-storm": (
        3220,
        "e90d7ca454d3e0119cf5c42b0d3b006d7cc44790d202b39dac5ec2a97cba3781",
    ),
    "micro/condition-fan": (
        784,
        "3deee3b475acffebf06de26c99642305a93695f94f7cc9c03a5ece96bbca85ef",
    ),
    "micro/handoff-mesh": (
        840,
        "8de87b9f7d35deab4b2dded1bfc8a2c681c8dfc092ea2f4ea6497d7642cb6a38",
    ),
    "micro/interrupt-kill": (
        385,
        "1f2110113fd7bcccd8b2ca1f2a5c8dc86e30ab32666292c87a216e9305aaaed6",
    ),
    "multiost": (
        5009,
        "8b8bdcd560b76469a84208855c5bad4f47fa93ac0467a44d8f6fdf6616fc5645",
    ),
    "poisson-storm": (
        3022,
        "73b5f220a7d58c352a5b7bdc2d588e99fff0f664dc07dc18c836126af001590c",
    ),
    "quickstart": (
        10779,
        "bb468b89aed4535d8f72c00cc4ea760e7c84566f7e2c4c74c3dfcf9233945e91",
    ),
    "recompensation": (
        4313,
        "6bd9a716f757479c17dbbae097f25a6ea8b2270ab89a0ee1f07bda6bc196f4ac",
    ),
    "redistribution": (
        3331,
        "8307770d7b97f4ecb3a9e65a48bf77c0035b61628a9fc7b281b9f380a589d934",
    ),
    "scale-500ost": (
        42652,
        "902723b2f00d982bdd431097ecc9ae096df97a03f4394f0755459647f8be8a19",
    ),
    "sdn/burst-storm": (
        722,
        "030b1df77ffc9ab82075369efe4934d45a37fd26a38a893c882f14b7b134a8b0",
    ),
    "sdn/ost-crash": (
        18638,
        "fdc58f4bf25652e4c4c6daf94944b246c02b446542f731c689bb35f784c1ad2f",
    ),
    "sdn/quickstart": (
        835,
        "3d7574a32a818eef9ebf9d28185edd9e207265840d38ff5bb8680c4ea28f259a",
    ),
    "trace-replay": (
        335,
        "cc9844049e39f0cdc0fefe25abec5e087e159d54a35c1b96abb268ced753eb93",
    ),
    "vc/burst-storm": (
        382,
        "eb5dc2b1b425f87083b1124a48902078f87e2c69249b598ee75beaab82f15343",
    ),
    "vc/ost-crash": (
        14857,
        "cea55eafc6f22cb057168fc6991679fb8fb69cd93fccd287550ced922a82d657",
    ),
    "vc/quickstart": (
        1026,
        "2d2757c115248b9d474388294e9c3dcd4c54398dd48f329d32ff76ef6c8845fe",
    ),
}


def trace_fresh(spec):
    """:func:`trace_scenario` on an environment without the free list."""
    cluster = build(spec, env=Environment(reuse_timeouts=False))
    entries = []
    cluster.env.trace = lambda when, priority, seq, event: entries.append(
        (when, priority, seq, type(event).__name__)
    )
    execute(cluster)
    return entries


def trace_micro(setup, reuse_timeouts=True):
    env = Environment(reuse_timeouts=reuse_timeouts)
    entries = []
    env.trace = lambda when, priority, seq, event: entries.append(
        (when, priority, seq, type(event).__name__)
    )
    setup(env)
    env.run()
    return entries


def test_every_case_has_a_golden():
    assert set(GOLDENS) == set(SCENARIO_CASES) | set(MICRO_CASES)


def test_rows_cover_every_registered_scenario_and_mechanism():
    assert set(REGISTRY.names()) <= set(SCENARIO_CASES)
    assert set(MECHANISMS.names()) == set(MECHANISM_NAMES)


@pytest.mark.parametrize("name", sorted(SCENARIO_CASES))
@pytest.mark.parametrize("reuse_timeouts", [True, False], ids=["reuse", "fresh"])
def test_scenario_dispatch_stream_matches_golden(name, reuse_timeouts):
    spec = SCENARIO_CASES[name]()
    stream = trace_scenario(spec) if reuse_timeouts else trace_fresh(spec)
    assert (len(stream), stream_digest(stream)) == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(MICRO_CASES))
@pytest.mark.parametrize("reuse_timeouts", [True, False], ids=["reuse", "fresh"])
def test_micro_dispatch_stream_matches_golden(name, reuse_timeouts):
    stream = trace_micro(MICRO_CASES[name], reuse_timeouts)
    assert (len(stream), stream_digest(stream)) == GOLDENS[name]
