"""The OSS idle pool: one calendar event per wake trigger, not per thread.

Behaviour (which RPC each poll serves, in which order) is pinned against
the per-thread herd by ``tests/sim/test_service_goldens.py``; these tests
pin the work the idle pool saves and the process bookkeeping it keeps.
"""

import gc

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.lustre import ClientProcess, TbfPolicy, TbfRule
from repro.lustre.tbf import TbfScheduler
from repro.scenarios import REGISTRY
from repro.sim import Environment
from repro.sim.process import Process

MB = 1 << 20


def test_quickstart_herd_schedules_at_most_16_events_per_rpc(monkeypatch):
    """1 OST, 16 threads, 8192 RPCs: 64.2 events and 28.8 polls per RPC
    when every idle thread raced its own deadline timer."""
    polls = []
    poll = TbfScheduler.poll

    def counting_poll(self, now):
        polls.append(now)
        return poll(self, now)

    monkeypatch.setattr(TbfScheduler, "poll", counting_poll)
    spec = REGISTRY.build(
        "quickstart", file_mib=1024.0, mechanism="adaptbf"
    ).with_topology(n_osts=1, io_threads=16)
    cluster = build(spec)
    execute(cluster)
    served = sum(oss.completed_rpcs for oss in cluster.osses)
    assert served == 8192
    assert cluster.env.scheduled / served <= 16
    assert len(polls) / served <= 5


def test_idle_threads_target_their_parked_group(make_stack, seq):
    env = Environment()
    ost, policy, oss, net = make_stack(env, TbfPolicy, io_threads=6)
    policy.start_rule(TbfRule("r1", "job1", rate=50.0))
    ClientProcess(env, net, oss, "job1", "c0", seq(8 * MB), window=4)
    env.run(until=0.05)
    threads = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, Process)
        and obj.env is env
        and obj.name.startswith("ost0.io")
    ]
    assert len(threads) == 6
    for thread in threads:
        target = thread.target
        assert target is not None and not target.processed
        assert thread._resume in target.callbacks


def test_rate_limited_threads_share_one_deadline_timer(make_stack, seq):
    """Threads that park back to back on the same token deadline cost one
    timer between them, and the run still drains at the rule's rate."""
    env = Environment()
    ost, policy, oss, net = make_stack(env, TbfPolicy, io_threads=16)
    policy.start_rule(TbfRule("r1", "job1", rate=100.0, depth=1.0))
    ClientProcess(env, net, oss, "job1", "c0", seq(50 * MB), window=8)
    env.run()
    assert oss.completed_rpcs == 50
    assert env.now == pytest.approx(0.5, abs=0.02)
    # One timer and one wake per token; the per-thread herd scheduled 61
    # events per RPC here.
    assert env.scheduled / oss.completed_rpcs <= 11

