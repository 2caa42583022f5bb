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
one wake per trigger, adjacent relays and hops sharing one carrier entry)
moves rows here while the service records, figure CSVs and campaign rows
pinned by ``test_service_goldens.py`` stay put.
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
        895,
        "88e8aa7aadea40dad32e71339e29df0ca9f4e410d217e35e64b1330ebf631e61",
    ),
    "burst-storm": (
        1425,
        "2746e61375999647e3d475d5ba28cb0f44c22689e7f1e29f0b779de6f1ffce4a",
    ),
    "client-swarm": (
        3795,
        "68576e8b7e81ed017ee8ae6e708bae68b6e600bce984fddef429511ae4c4aa1f",
    ),
    "diurnal-mix": (
        1740,
        "9df118669f0fa0a903666083f02e8ab85d8d467bc25cfece467ae48bc52c5b5b",
    ),
    "elastic-churn": (
        366,
        "9acbd973450ba12ab9cd091db5c73a91eef6fe3ecf0b1210e01b15bcd159c5a9",
    ),
    "fault/client-churn": (
        241,
        "9d8e3f9b0cd4b112a55364639e5b10cb731c00f46e19a010591f98f7851bfac3",
    ),
    "fault/net-delay": (
        211,
        "44bd7ec9127f3d622e8e500cc95eb52885a47ddfc8b32cffb97b14166a180bbd",
    ),
    "fault/net-partition": (
        265,
        "11b519b0da854a9023f96a3c298cc7ca4287337e02e4c39920b2dfea74b0c725",
    ),
    "fault/ost-crash": (
        317,
        "85fbe5198f6667e9da2d115e24df71beebcc5cf979e7019e8c8ccc086cd04bb7",
    ),
    "fault/ost-degrade": (
        288,
        "edd24b80b741c956bc3c21296271f2fe2698634885eb2d2f295b5c7b8f9a4a50",
    ),
    "fault/stacked": (
        316,
        "99733a398b48ba8e036c566b1913bff6db6b770be58d8d959c3323a24e60bfda",
    ),
    "hetero-osts": (
        2915,
        "f86cab89d611a8de97f0cc8ee07196114a0548fa19c836d2776c0ba899f30b22",
    ),
    "mechanism/adaptbf-ewma/ost-crash": (
        932,
        "5106bce8d62c9c1c43fbeead79634478353ebf61ab45315b0e8fb87936e081d5",
    ),
    "mechanism/adaptbf-ewma/poisson-storm": (
        1523,
        "2b44065098b2abc05d41e79974d78e104fdf6b2c09726c26e7cf549a28a47fd1",
    ),
    "mechanism/adaptbf/ost-crash": (
        882,
        "4d232d1dd9f7be5a7713acbe5bb61ae51c50c7bdcc59483cea8df3dd8311e8b3",
    ),
    "mechanism/none/ost-crash": (
        642,
        "3e7df24c4df91f58af9a8f996ac20c4dd8c772468d334bb4787828352030877a",
    ),
    "mechanism/none/poisson-storm": (
        869,
        "47bf59751121b1558db55bb06a1b2deaa79f28c48cbb2d30e7eb3eae933e53f5",
    ),
    "mechanism/pid/ost-crash": (
        436,
        "a546ec9aedc20886416e2687c4f6aaa3ee32818cc53a2ea25aa36225001cd88e",
    ),
    "mechanism/pid/poisson-storm": (
        568,
        "87226e611de2a640c1930023878f88fb5c8dca77a272cd984ad82214276328db",
    ),
    "mechanism/sdn/ost-crash": (
        1701,
        "56e9a5459e18cbc78e67a0d99f4a3b5bcfd908ae048c9e8a1ef1a53e6f989653",
    ),
    "mechanism/sdn/poisson-storm": (
        2845,
        "6114bc4be300c6828463ebb37d41af9db58dfc89f91509fde00b704959578c75",
    ),
    "mechanism/static/ost-crash": (
        398,
        "b5579d23d9bb85aa10921b834a0d92dbf248b8f595ee1f590b0fcf69d8d6197a",
    ),
    "mechanism/static/poisson-storm": (
        506,
        "895aae8af9fde3aa84293da1da3b6c64f0309729a6104fc7ee0bfdde8c882b82",
    ),
    "mechanism/vc/ost-crash": (
        677,
        "38ed84d8fc852225defc3904577e279697a94b15541644ea70d10c62191e5cd4",
    ),
    "mechanism/vc/poisson-storm": (
        897,
        "24cf36ec916493c5a0adac1430d3dc5739ebc181f6a463088b4d326db5576ee3",
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
        1992,
        "5e9000fd89e8a9a2a0728e1f058731fab021c4a01f56dfe4e81091d894335f2f",
    ),
    "poisson-storm": (
        1538,
        "008aca600476ad02f6695c26b5abdfbfbc6431a6321c3da5879fba394c9578b3",
    ),
    "quickstart": (
        7049,
        "50b9180c518ebc1b4fd32e160f7cbc0b6fcf1c769ea882f188bfdd1b41df0c11",
    ),
    "recompensation": (
        2042,
        "c0f2bac8dd98557db2d956f0812d1f07747448cd229b8e88fd1db77852f2dbfb",
    ),
    "redistribution": (
        1301,
        "c405eceee6ab10e21f4e52c3c7318dc5b2584928c4663198d42b72d2a6e3680d",
    ),
    "scale-500ost": (
        19922,
        "e506757713294a42f6ca21f750cfd834d6eac75b8d4a54eca63b1693e8ff3065",
    ),
    "sdn/burst-storm": (
        216,
        "e2614be08f7b23c39945a2db17bf363d7075e8ade16fc2440f79f84c4093d93a",
    ),
    "sdn/ost-crash": (
        10193,
        "10e4e5147dc75f7dcb697757643584ed8ba7fac818cde1c471ea3b87937d2b65",
    ),
    "sdn/quickstart": (
        195,
        "72161f91394d729e05389127547b3fca97c3ca18fe6fd5fd0feec05f8bdaa790",
    ),
    "trace-replay": (
        69,
        "c8ed641f6890d6df8db2c864d130758b5263b60c6c86246f7bc6ab27b7b6380c",
    ),
    "vc/burst-storm": (
        191,
        "224cd9c8ccc28beb1cf9a25de2f113f689b947479bcb1b0b45513eca4fde0dc1",
    ),
    "vc/ost-crash": (
        6227,
        "cc5191dad55d09518f763c10c54cd918cf3ec524a58f48897ff874c3eb6a9217",
    ),
    "vc/quickstart": (
        497,
        "f82a3365cf9f1a8b27c69d66c232340b7e7966fd21b43f7a6a0dd9883d363b30",
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
