"""No cycles, no collector in the loop: the contract behind the GC pause.

:meth:`repro.sim.engine.Environment.run` pauses CPython's cyclic garbage
collector for the length of a run.  That is only sound if model code makes
no reference cycle per event: reference counting alone must free every
event, RPC, timer batch and finished process, or the cycles pile up until
the run ends.  This module pins both halves (docs/performance.md §"No
cycles, no collector in the loop"):

* every ``SCENARIO_CASES`` row, every seeded rule-churn stack and one
  in-process cell each of the ``decentralization-tax`` and
  ``chaos-shootout`` campaigns is run once to warm lazy imports, then run
  again with the collector off throughout; while the cluster is still
  alive, ``gc.collect()`` must find nothing unreachable;
* ``run`` restores the collector's state on every exit path (``until`` a
  time, an event or nothing, traced, raising) and leaves a collector the
  caller disabled alone.
"""

import gc

import pytest
from test_dispatch_goldens import SCENARIO_CASES
from test_service_goldens import CHURN_GOLDENS, churn_run

from repro.campaigns import CAMPAIGNS
from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.sim import Environment

#: Campaign → the parameters picking its in-process cell: the centralized
#: mechanisms, whose control rounds spawn a process per rule push.
CAMPAIGN_CELLS = {
    "decentralization-tax": {
        "mechanism": "sdn",
        "mechanism_params": {"ctrl_latency_s": 0.05},
        "n_osts": 2,
        "workload": "burst",
    },
    "chaos-shootout": {"mechanism": "vc"},
}


@pytest.fixture
def collector():
    """Start with the collector enabled and nothing left to collect; leave
    it enabled whatever the test did."""
    gc.enable()
    gc.collect()
    yield
    gc.enable()


def cyclic_garbage(run):
    """Objects ``gc.collect()`` finds unreachable after ``run()``, with the
    collector off throughout and ``run``'s result still alive."""
    run()  # warm: lazy imports may leave one-time cycles
    gc.collect()
    gc.disable()
    try:
        alive = run()
        found = gc.collect()
    finally:
        gc.enable()
    del alive
    return found


def scenario_run(spec):
    def run():
        cluster = build(spec)
        return cluster, execute(cluster)

    return run


def campaign_cell(name):
    campaign = CAMPAIGNS.build(name)
    (cell,) = [c for c in campaign.cells() if c.params == CAMPAIGN_CELLS[name]]
    return campaign.resolve(cell)


@pytest.mark.usefixtures("collector")
class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", sorted(SCENARIO_CASES))
    def test_scenario_case(self, name):
        assert cyclic_garbage(scenario_run(SCENARIO_CASES[name]())) == 0

    @pytest.mark.parametrize("seed, crash", sorted(CHURN_GOLDENS))
    def test_rule_churn_stack(self, seed, crash):
        assert cyclic_garbage(lambda: churn_run(seed, crash)) == 0

    @pytest.mark.parametrize("name", sorted(CAMPAIGN_CELLS))
    def test_campaign_cell(self, name):
        assert cyclic_garbage(scenario_run(campaign_cell(name))) == 0


def _ticker(env, seen):
    """A process recording the collector's state at every tick."""
    for _ in range(3):
        seen.append(gc.isenabled())
        yield env.timeout(1.0)


def _env_with_ticker(trace=False):
    env = Environment()
    if trace:
        env.trace = lambda *entry: None
    seen = []
    proc = env.process(_ticker(env, seen))
    return env, proc, seen


@pytest.mark.usefixtures("collector")
class TestCollectorRestored:
    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("until", ["time", "event", "none"])
    def test_paused_inside_and_restored_after(self, until, trace):
        env, proc, seen = _env_with_ticker(trace)
        env.run(until={"time": 1.5, "event": proc, "none": None}[until])
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    def test_restored_when_a_callback_raises(self, trace):
        env, _proc, _seen = _env_with_ticker(trace)

        def boom(_event):
            raise RuntimeError("boom")

        env.timeout(0.5).callbacks.append(boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert gc.isenabled()

    def test_restored_when_the_until_event_fails(self):
        env = Environment()
        failing = env.event()
        failing.fail(KeyError("lost"))
        with pytest.raises(KeyError):
            env.run(until=failing)
        assert gc.isenabled()

    @pytest.mark.parametrize("until", ["time", "event", "none"])
    def test_caller_disabled_collector_stays_disabled(self, until):
        env, proc, seen = _env_with_ticker()
        gc.disable()
        env.run(until={"time": 1.5, "event": proc, "none": None}[until])
        assert not gc.isenabled()

    def test_step_leaves_the_collector_alone(self):
        env, _proc, seen = _env_with_ticker()
        env.step()
        assert seen == [True]
        assert gc.isenabled()
