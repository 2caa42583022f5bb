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
behaviour change and needs a CHANGES.md line naming the cause.
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
        6137,
        "2624e13ff04bece219f9fe28c7c0a9a11556d1a1bf72197a6be1c6e8923931b9",
    ),
    "client-swarm": (
        18772,
        "a63a74c20774eef050cc376e1fbb05d3034a683609afbabde7a84d832ab38215",
    ),
    "diurnal-mix": (
        10382,
        "c26701971c9c39e757407c811a77c56278eabf84cf5f36473ade1e5d8ce0fb3f",
    ),
    "elastic-churn": (
        1383,
        "3dba302a9737e12ebc5c1e0becd797fdc2a07112aeb15127f56e5f8eebc640a4",
    ),
    "fault/client-churn": (
        814,
        "1e2cb39fa37ba3805fc3460090a21f99bd602173b6e6985f97d74b45ff14dd67",
    ),
    "fault/net-delay": (
        915,
        "c30d4cc7c548ef9b4d771d1a972a068bdeed80323b4ebf70d9446e0c8ccc02dd",
    ),
    "fault/net-partition": (
        1019,
        "3ed4ecceb98e53d687ebe0b0f60e0dc7b0f1aeaa37844ff413833453996c759a",
    ),
    "fault/ost-crash": (
        1148,
        "3aad1770b154af3ce923734dbb0b80df9311b31f431c034dd79a948ab5f9a2b7",
    ),
    "fault/ost-degrade": (
        1124,
        "111b1c25849f0b833f8db1b6dd2385786fc5e4bfe6cc3ce55fdcaab7ce1fac92",
    ),
    "fault/stacked": (
        1096,
        "db365dde4f561ed386531ff56c4fd74b84ef7a9f72db78809fab4e87bf2269f2",
    ),
    "hetero-osts": (
        12653,
        "f9376f52cb13f9e712088367a442a8e68bd8d99baf5b0189add7e4fbace1ead4",
    ),
    "mechanism/adaptbf-ewma/ost-crash": (
        5562,
        "ae8a75b59b31c1e82089c665848eb657e545c47e327526b32f0e18f99c7f28b6",
    ),
    "mechanism/adaptbf-ewma/poisson-storm": (
        7241,
        "3cbb2f7400370f7a629eda819ed012e7e7001f996f4fc1f61615cc163f72fd31",
    ),
    "mechanism/adaptbf/ost-crash": (
        5089,
        "6fa1e0e072a83d64ee28d4b2ed0da7a0caf0ac2d444752cf877e335f1a4ea49b",
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
        1761,
        "8016a584480bf15fd59afed99501e67961294f9c9e33ff6738bf38d5f86761ab",
    ),
    "mechanism/pid/poisson-storm": (
        2486,
        "c090d7667dcca27454e271657102e8babac945ed1866a8612a46e6f28b8fdf8c",
    ),
    "mechanism/sdn/ost-crash": (
        8446,
        "6cf7996126848f02d9a698a6986a59f85b2c6c31efcee715acf647c5281825f2",
    ),
    "mechanism/sdn/poisson-storm": (
        15693,
        "4db8f836836691be122378931320a9d2c2b6a9f01d3f74dfecd249e6461342fe",
    ),
    "mechanism/static/ost-crash": (
        1840,
        "c3b5eafe04398ae6b8b44d13c6a7bd5e386ba7d37b509da2edd88e7f58cc0459",
    ),
    "mechanism/static/poisson-storm": (
        2422,
        "6908cb991cd440f880cbc9e2a2b3bb76f8dc686ff41a0de0dff68fcbdd10188e",
    ),
    "mechanism/vc/ost-crash": (
        2404,
        "398149a4700518fb4cb20975f2212ff06f03c0d31e76890e7867934bbf0a8c43",
    ),
    "mechanism/vc/poisson-storm": (
        3548,
        "2321c78b77055f42f6bcd4412137f2d3e4b1d39d40f1412c119b27b8f3657972",
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
        11521,
        "da48ba556b7ed46ce03630faa6683658a5fc02033719692f24c888177fcce646",
    ),
    "poisson-storm": (
        7291,
        "d7e64ac1b96b9db4b5766b4cf3a8a68f52b25309d29ec7fad88a36c4522759d9",
    ),
    "quickstart": (
        28375,
        "5e3cf452a3a98132993662b5d35051dad250f3c4d1d867285e68795e39e7ba8b",
    ),
    "recompensation": (
        7571,
        "6fe545082ddc12f0798e66340a94fe5170c15a37a2149278d3f17868558f3435",
    ),
    "redistribution": (
        6964,
        "609b703f010f82d9a67f3d56ec620e0adf1101ed7623fe88bbce8b6c1480c9ea",
    ),
    "scale-500ost": (
        45304,
        "d16f94182cd6ae923965d420a4ecc26b8110057147423d36358cfa80be7abfd5",
    ),
    "sdn/burst-storm": (
        722,
        "030b1df77ffc9ab82075369efe4934d45a37fd26a38a893c882f14b7b134a8b0",
    ),
    "sdn/ost-crash": (
        61705,
        "e807f341ffa60b32c5484a62ab9784d973eaf78ca76f35591dec05f0e4709c86",
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
        905,
        "3aa8b21a6ce35cc6fc37a601da51740d7eb07bb602bd32c762674b41668a1002",
    ),
    "vc/ost-crash": (
        15260,
        "50ae352cb2f1e52818229d60cc348dae659f7297a1af1458aea98f591b969100",
    ),
    "vc/quickstart": (
        1262,
        "c9d94c790af21e6e1987284ff9307ef8bdb66fab1ce7530e871f0e20c80123c4",
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
