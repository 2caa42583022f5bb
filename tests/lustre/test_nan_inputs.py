"""NaN (and, for OST capacity, infinity) is refused at every lustre entry
point that takes a rate, a delay or a bandwidth.

A NaN rate yields NaN token deadlines, which compare false against
everything and silently corrupt the TBF deadline heap; a NaN latency or
overhead yields NaN event times.  Each validator uses the ``not x >= 0``
form, which rejects NaN as well as negatives.
"""

import math

import pytest

from repro.lustre import FifoPolicy, Network, Oss, Ost, TbfPolicy
from repro.lustre.bucket import TokenBucket
from repro.lustre.tbf import TbfRule, TbfScheduler
from repro.sim import Environment

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
}

#: Entry points that also refuse an infinite value.
FINITE_ONLY = {"Ost.capacity_bps", "Ost.set_capacity"}


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
