"""NaN (and, where the value must be finite, infinity) is refused at every
lustre entry point that takes a rate, a delay, a bandwidth or a size, at
the throughput timeline, and at the kernel's delay entry points.

A NaN rate yields NaN token deadlines, which compare false against
everything and silently corrupt the TBF deadline heap; a NaN latency or
overhead yields NaN event times.  A NaN transfer size dies later inside the
OST's completion check, and an infinite one never completes.  Each
validator uses the ``not x >= 0`` / ``not 0 < x < inf`` form, which rejects
NaN as well as negatives.  An infinite timeout or hop delay would let a
plain ``run()`` move the clock to ``inf`` and run the callback there.
"""

import math

import pytest

from repro.lustre import FifoPolicy, IoHandle, Network, Oss, Ost, Rpc, TbfPolicy
from repro.lustre.bucket import TokenBucket
from repro.lustre.tbf import TbfRule, TbfScheduler
from repro.metrics.timeline import Timeline
from repro.sim import Environment
from repro.sim.events import Timeout

NAN = float("nan")


def _rule(**kwargs):
    return TbfRule("r1", "job1", **{"rate": 10.0, **kwargs})


def _scheduler_change_rate(rate):
    scheduler = TbfScheduler()
    scheduler.start_rule(0.0, _rule())
    scheduler.change_rate(0.0, "r1", rate)


def _policy_change_rate(rate):
    policy = TbfPolicy(Environment())
    policy.start_rule(_rule())
    policy.change_rate("r1", rate)


def _oss(overhead):
    env = Environment()
    Oss(env, Ost(env, "o", 1e9), FifoPolicy(env), rpc_overhead_s=overhead)


def _set_latency(latency):
    Network(Environment(), latency_s=0.0).set_latency(latency)


def _set_capacity(capacity):
    Ost(Environment(), "o", 1e9).set_capacity(capacity)


def _io_handle(**kwargs):
    env = Environment()
    oss = Oss(env, Ost(env, "o", 1e9), FifoPolicy(env))
    IoHandle(env, Network(env), oss, "job1", "c0", **kwargs)


def _io_stream(method, nbytes):
    env = Environment()
    oss = Oss(env, Ost(env, "o", 1e9), FifoPolicy(env))
    io = IoHandle(env, Network(env), oss, "job1", "c0")
    next(getattr(io, method)(nbytes))


def _recycled_timeout(delay):
    env = Environment()
    env.timeout(0.0)
    env.run()  # the dispatched timeout goes to the free list
    env.timeout(delay)


#: Entry point → callable taking the bad value.
ENTRY_POINTS = {
    "TokenBucket.rate": lambda x: TokenBucket(x),
    "TokenBucket.depth": lambda x: TokenBucket(1.0, depth=x),
    "TokenBucket.tokens": lambda x: TokenBucket(1.0, tokens=x),
    "TokenBucket.set_rate": lambda x: TokenBucket(1.0).set_rate(0.0, x),
    "TbfRule.rate": lambda x: _rule(rate=x),
    "TbfRule.depth": lambda x: _rule(depth=x),
    "TbfScheduler.change_rate": _scheduler_change_rate,
    "TbfPolicy.change_rate": _policy_change_rate,
    "Oss.rpc_overhead_s": _oss,
    "Network.latency_s": lambda x: Network(Environment(), latency_s=x),
    "Network.set_latency": _set_latency,
    "Ost.capacity_bps": lambda x: Ost(Environment(), "o", x),
    "Ost.set_capacity": _set_capacity,
    "Ost.transfer": lambda x: Ost(Environment(), "o", 1e9).transfer(x),
    "Rpc.size_bytes": lambda x: Rpc("job1", "c0", size_bytes=x),
    "IoHandle.rpc_size": lambda x: _io_handle(rpc_size=x),
    "IoHandle.window": lambda x: _io_handle(window=x),
    "IoHandle.write": lambda x: _io_stream("write", x),
    "IoHandle.read": lambda x: _io_stream("read", x),
    "Environment.timeout": lambda x: Environment().timeout(x),
    "Environment.timeout.recycled": _recycled_timeout,
    "Timeout.delay": lambda x: Timeout(Environment(), x),
    "Environment.hop": lambda x: Environment().hop(x, print, None),
    "Timeline.bin_s": lambda x: Timeline(bin_s=x),
    "Timeline.record": lambda x: Timeline().record("job1", 0.0, x),
}

#: Entry points that also refuse an infinite value.
FINITE_ONLY = {
    "Ost.capacity_bps",
    "Ost.set_capacity",
    "Ost.transfer",
    "Rpc.size_bytes",
    "IoHandle.rpc_size",
    "IoHandle.write",
    "IoHandle.read",
    "Environment.timeout",
    "Environment.timeout.recycled",
    "Timeout.delay",
    "Environment.hop",
    "Timeline.bin_s",
    "Timeline.record",
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_is_rejected(entry):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](NAN)


@pytest.mark.parametrize("entry", sorted(FINITE_ONLY))
def test_infinite_capacity_is_rejected(entry):
    with pytest.raises(ValueError, match="finite"):
        ENTRY_POINTS[entry](math.inf)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_valid_value_is_accepted(entry):
    ENTRY_POINTS[entry](1.0)
