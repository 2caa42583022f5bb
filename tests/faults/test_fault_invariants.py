"""Property-style invariants under randomized fault schedules.

For *every* registered mechanism we draw a handful of seeded random fault
schedules (via :class:`RngStreams` substreams — no raw ``random``, no
numpy) and assert that the mechanism's conservation invariants survive the
disturbance:

* every client finishes (crashed work is requeued, not lost);
* the borrowing ledger is balanced — ``records.total() == 0`` — for every
  AdapTBF controller in the cluster;
* every allocation round conserves the token budget exactly:
  ``sum(allocations) == total_tokens``.

These mirror the fault-free invariant tests in ``tests/core``; the point
here is that injected crashes, slowdowns and churn cannot corrupt them.
"""

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.core.mechanism import MECHANISMS
from repro.scenarios import REGISTRY
from repro.sim.rng import RngStreams

SEEDS = (0, 1, 2)


def random_schedule(rng, *, churn_seed):
    """One to three fault specs with windows inside a ~0.25 s run."""
    faults = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["ost-crash", "ost-degrade", "net-delay", "client-churn"])
        params = {
            "start_s": round(rng.uniform(0.02, 0.12), 3),
            "duration_s": round(rng.uniform(0.02, 0.08), 3),
        }
        if name == "ost-degrade":
            params["factor"] = round(rng.uniform(0.1, 0.8), 2)
        elif name == "net-delay":
            params["factor"] = round(rng.uniform(1.0, 8.0), 2)
        elif name == "client-churn":
            params.update(leaves=rng.randint(0, 2), joins=rng.randint(0, 2))
            params["seed"] = churn_seed
        faults.append((name, params))
    return faults


def run_under_schedule(mechanism, seed):
    rng = RngStreams(seed).get_stdlib("fault-schedule")
    spec = REGISTRY.build(
        "quickstart",
        file_mib=16.0,
        procs=2,
        capacity_mib_s=256.0,
        mechanism=mechanism,
        duration=1.5,  # cap so churn joins cannot stall the run
    ).with_run(seed=seed)
    for name, params in random_schedule(rng, churn_seed=seed):
        spec = spec.with_fault(name, params)
    cluster = build(spec)
    result = execute(cluster)
    return cluster, result


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS.names()))
@pytest.mark.parametrize("seed", SEEDS)
class TestFaultInvariants:
    def test_clients_finish_and_ledger_balances(self, mechanism, seed):
        cluster, result = run_under_schedule(mechanism, seed)
        assert result.clients_finished
        for handle in cluster.handles:
            if handle.adaptbf is not None:
                assert handle.adaptbf.algorithm.records.total() == 0

    def test_every_round_conserves_the_token_budget(self, mechanism, seed):
        cluster, _ = run_under_schedule(mechanism, seed)
        rounds = 0
        for handle in cluster.handles:
            history = handle.history
            if history is None:
                continue
            for round_ in history:
                allocated = sum(round_.result.allocations.values())
                assert allocated == round_.result.total_tokens
                rounds += 1
        if mechanism.startswith("adaptbf"):
            assert rounds > 0  # the control loop actually ran


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a = random_schedule(RngStreams(7).get_stdlib("fault-schedule"), churn_seed=7)
        b = random_schedule(RngStreams(7).get_stdlib("fault-schedule"), churn_seed=7)
        assert a == b

    def test_different_seeds_draw_different_schedules(self):
        draws = {
            tuple(
                (n, tuple(sorted(p.items())))
                for n, p in random_schedule(
                    RngStreams(s).get_stdlib("fault-schedule"), churn_seed=s
                )
            )
            for s in range(8)
        }
        assert len(draws) > 1
