"""Contracts every registered bandwidth mechanism must honor.

Each mechanism module carries its own behavioral tests; this suite pins
the *shared* protocol down by parametrizing over whatever is in
:data:`~repro.core.mechanism.MECHANISMS` at collection time — a newly
registered mechanism is enrolled automatically and must pass:

* per-round token conservation: ``allocate`` never grants negative rates
  and never more than the OST's token rate scaled by the mechanism's own
  declared ``overbook`` factor (1.0 for everyone that doesn't declare one);
* end-to-end byte conservation: every byte a client requested is served
  exactly once, and the data plane never services beyond OST capacity;
* teardown quiescence: after ``teardown`` the event heap drains — no live
  timeouts, control loops, or in-flight rule pushes survive;
* ``describe()`` round-trips through the registry;
* campaign rows are byte-identical for ``--jobs 1`` vs ``--jobs 4``.

The simulation-facing contracts run on one OST and on two OSTs with every
file striped over both, where each OST runs its own control loop against
a share of every job's demand.
"""

import collections
import json
import math

import pytest

from repro.campaigns import CampaignSpec, ParameterAxis, run_campaign
from repro.core.mechanism import MECHANISMS

MIB = 1 << 20

ALL_MECHANISMS = sorted(MECHANISMS.names())

#: Topology id → ``(n_osts, stripe_count)`` of the fixture cluster.
TOPOLOGIES = {"one-ost": (1, 1), "striped": (2, 2)}

#: Mechanisms whose allocations share one per-OST budget (sum-bounded).
#: ``pid`` is feedback control: its contract is the per-job clamp only.
SUM_BUDGETED = frozenset(
    {"none", "static", "adaptbf", "adaptbf-ewma", "sdn", "vc"}
)


def overbook_factor(name):
    """The admission inflation a mechanism *declares*, 1.0 by default."""
    return float(MECHANISMS.get(name).params.get("overbook", 1.0))


@pytest.mark.parametrize("name", ALL_MECHANISMS)
class TestRegistryRoundTrip:
    def test_describe_round_trips_through_registry(self, name):
        entry = MECHANISMS.get(name)
        text = MECHANISMS.describe(name)
        assert f"mechanism: {name}" in text
        for param in entry.params:
            assert param in text
        built = MECHANISMS.build(name)
        assert built.name == name
        assert set(built.params) == set(entry.params)


@pytest.fixture(params=sorted(TOPOLOGIES))
def make_cluster(request, make_mechanism_cluster):
    """``make_mechanism_cluster`` on each topology in :data:`TOPOLOGIES`."""
    n_osts, stripe_count = TOPOLOGIES[request.param]

    def _make(name, **overrides):
        return make_mechanism_cluster(
            name, n_osts=n_osts, stripe_count=stripe_count, **overrides
        )

    return _make


@pytest.mark.parametrize("name", ALL_MECHANISMS)
class TestTokenConservation:
    def test_round_rates_stay_inside_the_budget(self, make_cluster, name):
        cluster = make_cluster(name, volume=64 * MIB)
        cluster.env.run(until=0.25)  # a few rounds of real demand
        ceiling = cluster.spec.topology.max_token_rate() * overbook_factor(name)
        for handle in cluster.handles:
            rates = handle.allocate(handle.observe())
            assert all(rate >= 0.0 for rate in rates.values())
            for job, rate in sorted(rates.items()):
                assert rate <= ceiling + 1e-6, (job, rate)
            if name in SUM_BUDGETED:
                assert sum(rates.values()) <= ceiling + 1e-6
        cluster.teardown()

    def test_bytes_conserved_end_to_end(self, make_cluster, name):
        volume = 8 * MIB
        cluster = make_cluster(name, volume=volume)
        served = collections.Counter()
        for oss in cluster.osses:
            oss.on_complete(
                lambda rpc: served.update({rpc.job_id: rpc.size_bytes})
            )
        cluster.env.run(until=cluster.all_clients_done())
        # Every requested byte served exactly once — rule churn, fallback
        # service, denial, and preemption may delay bytes, never lose or
        # duplicate them.
        assert dict(served) == {
            job.job_id: volume for job in cluster.spec.jobs
        }
        # And no mechanism conjures service beyond the physical link.
        elapsed = cluster.env.now
        assert sum(served.values()) <= (
            cluster.total_capacity_bps() * elapsed * (1 + 1e-9)
        )

    def test_teardown_quiesces_the_event_heap(self, make_cluster, name):
        cluster = make_cluster(name, volume=16 * MIB)
        env = cluster.env
        env.run(until=0.15)  # mid-run: rules live, clients in flight
        cluster.teardown()
        rounds_at_teardown = [h.rounds_run for h in cluster.handles]
        env.run()  # drains — or hangs the test if a loop survived
        assert env.peek() == math.inf
        for oss in cluster.osses:
            # FIFO-backed mechanisms ("none") have no rule table at all.
            if hasattr(oss.policy, "rule_names"):
                assert oss.policy.rule_names() == []
        # The clock advanced past every pending event and no control round
        # ran after teardown: no timeout, loop, or in-flight push survived.
        assert [h.rounds_run for h in cluster.handles] == rounds_at_teardown


@pytest.mark.parametrize("name", ALL_MECHANISMS)
class TestCampaignDeterminism:
    def test_rows_byte_identical_across_worker_counts(self, name):
        campaign = CampaignSpec(
            name=f"invariants-{name}",
            scenario="quickstart",
            axes=(ParameterAxis("capacity_mib_s", (512.0, 1024.0)),),
            base_params={"file_mib": 8.0, "procs": 2, "mechanism": name},
        )
        serial = run_campaign(campaign, jobs=1)
        parallel = run_campaign(campaign, jobs=4)

        def dump(result):
            return json.dumps(
                [
                    {"index": o.index, "seed": o.seed, **o.row.as_dict()}
                    for o in result.outcomes
                ],
                sort_keys=True,
            ).encode()

        assert dump(serial) == dump(parallel)
