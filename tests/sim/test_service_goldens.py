"""Service goldens: what the simulator computes, pinned to committed digests.

The dispatch-stream goldens (``test_dispatch_goldens.py``) fix the whole
calendar schedule, so they move whenever the engine or the OSS learns to
do the same work with fewer events.  These goldens pin what must *not*
move under such a change:

* for every row of ``SCENARIO_CASES``, the per-RPC service records
  (``job``, ``client``, ``submitted``, ``arrived``, ``dequeued``,
  ``completed``, ``via_fallback``) in completion order, collected through
  :meth:`repro.lustre.oss.Oss.on_complete`, plus the run summary;
* the ``export_all`` CSVs of fig3, fig5 and fig7 at ``bench_scale()``,
  and fig9's sweep at ``bench_scale()``: fig9 exports no ``export_all``
  CSVs (it reports one aggregate per allocation period), so its golden is
  the ``rows.json`` and ``rows.csv`` its ``freq-sweep`` campaign writes;
* ``rows.json`` of the ``chaos-shootout`` and ``decentralization-tax``
  campaigns at one and at two workers;
* seeded rule-churn stacks: one OSS whose TBF rules are started, stopped
  and re-rated at zero-delay steps while clients write, with per-RPC
  overhead and repeated crashes.  Zero-delay rule changes put arrival
  broadcasts at the same instant as token deadlines and completions, the
  case where waking an idle thread one calendar hop early or late changes
  which RPC it serves.

Re-recording any digest here is a model change, not an engine change:
it needs a CHANGES.md line naming the cause (and a DESIGN.md deviation
when a paper figure moves).
"""

import hashlib
import json
import random

import pytest
from test_dispatch_goldens import SCENARIO_CASES

from repro.campaigns import CAMPAIGNS, run_campaign, write_artifacts
from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.experiments import fig3_fig4, fig5_fig6, fig7_fig8, fig9
from repro.experiments.common import bench_scale
from repro.lustre import ClientProcess, Network, Oss, Ost, TbfPolicy
from repro.lustre.tbf import TbfRule
from repro.metrics.export import export_all
from repro.sim import Environment

MB = 1 << 20


def service_digest(spec):
    """SHA-256 over one run's per-RPC service records and its summary."""
    cluster = build(spec)
    records = []

    def record(rpc):
        records.append(
            (
                rpc.job_id,
                rpc.client_id,
                rpc.submitted,
                rpc.arrived,
                rpc.dequeued,
                rpc.completed,
                rpc.via_fallback,
            )
        )

    for oss in cluster.osses:
        oss.on_complete(record)
    result = execute(cluster)
    summary = result.summary
    payload = {
        "records": records,
        "summary": {
            "mechanism": summary.mechanism,
            "duration_s": summary.duration_s,
            "per_job_mib_s": sorted(summary.per_job_mib_s.items()),
            "aggregate_mib_s": summary.aggregate_mib_s,
            "job_completion_s": sorted(result.job_completion_s.items()),
            "clients_finished": result.clients_finished,
        },
    }
    # json renders floats with repr(), so the digest is bit-exact.
    return len(records), hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def figure_digests(module, prefix, directory):
    """File name → SHA-256 of every CSV ``export_all`` writes for a figure."""
    written = export_all(module.run(bench_scale()).results, directory, prefix=prefix)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in written.values()
    }


def fig9_digests(directory):
    """File name → SHA-256 of the artifacts of fig9's sweep campaign."""
    paths = write_artifacts(run_campaign(fig9.campaign(bench_scale())), directory)
    return {
        paths[key].name: hashlib.sha256(paths[key].read_bytes()).hexdigest()
        for key in ("rows", "csv")
    }


def campaign_rows_digest(name, jobs, directory):
    """SHA-256 of a built-in campaign's ``rows.json``."""
    result = run_campaign(CAMPAIGNS.build(name), jobs=jobs)
    paths = write_artifacts(result, directory)
    return hashlib.sha256(paths["rows"].read_bytes()).hexdigest()


def churn_run(seed, crash):
    """Run one seeded rule-churn stack; returns its service records and
    the stack (environment, OSS, network, clients), still alive."""
    rng = random.Random(seed)
    env = Environment()
    ost = Ost(env, "ost0", capacity_bps=rng.choice([50, 200, 800]) * MB)
    policy = TbfPolicy(env)
    oss = Oss(env, ost, policy, io_threads=16, rpc_overhead_s=0.0007)
    net = Network(env, latency_s=rng.choice([0.0, 0.0005, 0.002]))
    records = []
    oss.on_complete(
        lambda rpc: records.append(
            (rpc.job_id, rpc.client_id, rpc.arrived, rpc.dequeued, rpc.completed)
        )
    )
    jobs = [f"j{k}" for k in range(4)]
    clients = []

    def program(io, n, think):
        for _ in range(n):
            yield from io.write(rng.choice([1, 2, 4]) * MB)
            if think:
                yield env.timeout(think)

    for job in jobs:
        for c in range(rng.randint(1, 3)):
            n, think = rng.randint(5, 40), rng.choice([0.0, 0.001, 0.01])
            client = ClientProcess(
                env,
                net,
                oss,
                job,
                f"{job}c{c}",
                lambda io, n=n, think=think: program(io, n, think),
                window=rng.choice([1, 2, 8]),
            )
            clients.append(client)

    def churn():
        live = set()
        for _ in range(60):
            yield env.timeout(rng.choice([0.0, 0.001, 0.005, 0.01]))
            job = rng.choice(jobs)
            if job not in live:
                rate = rng.choice([10.0, 100.0, 500.0])
                policy.start_rule(TbfRule(job, job, rate=rate, rank=rng.randint(0, 3)))
                live.add(job)
            elif rng.random() < 0.2:
                policy.stop_rule(job)
                live.discard(job)
            else:
                rate = rng.choice([0.0, 5.0, 50.0, 300.0, 1000.0])
                policy.change_rate(job, rate, rank=rng.randint(0, 3))

    def crasher():
        for _ in range(3):
            yield env.timeout(rng.choice([0.01, 0.03, 0.05]))
            oss.crash()
            yield env.timeout(rng.choice([0.005, 0.02]))
            oss.recover()

    env.process(churn())
    if crash:
        env.process(crasher())
    env.run(until=3.0)
    return records, (env, oss, net, clients)


def churn_digest(seed, crash):
    """SHA-256 over the service records of one seeded rule-churn stack."""
    records, (_env, oss, _net, _clients) = churn_run(seed, crash)
    payload = [records, oss.rpcs_retried, oss.rpcs_dropped]
    return len(records), hashlib.sha256(json.dumps(payload).encode()).hexdigest()


#: Row name → (completed RPCs, SHA-256 of service records and summary).
SERVICE_GOLDENS = {
    "allocation": (
        496,
        "29845fa551c73383d34cc70c242b0376ce1a574885a02b1882da1f6f32584ad6",
    ),
    "burst-storm": (
        349,
        "3e8f2ed14c2d22467464f7dcccd765a939332bed8935bd42296d5c6f44f0eccf",
    ),
    "client-swarm": (
        1984,
        "bca256d9d62c0fc211ff5755b05b08500dcf3eda0604a86c18f74a24250cb63f",
    ),
    "diurnal-mix": (
        348,
        "fc68558e18f69d83f94455fe422e1dc3456991d43cdf71a9821676ac25487318",
    ),
    "elastic-churn": (
        160,
        "9fe3a49cec47211852b62a947f68a0814f6cbe213f870b360bfdd4293d80338b",
    ),
    "fault/client-churn": (
        72,
        "e07ddb7a375bbe4febb8a24418d2240aaa3edd75629fe0ece0e842d9f4b4dfd7",
    ),
    "fault/net-delay": (
        64,
        "21a36f6ed376b09f6e8f4ee4db317275f681be5db36b8de4b2b5d38445ecc812",
    ),
    "fault/net-partition": (
        64,
        "9027ab8479c1386e15e6d741c47b34035e972778c385e89c05478c5734afe932",
    ),
    "fault/ost-crash": (
        64,
        "3f24fc95e103ea0dec7ca1323b4d9d51b5d3220c80e1595046bb7782e7ffc37c",
    ),
    "fault/ost-degrade": (
        64,
        "f2bcfbad1ea668919ad4249fd323d7c9fba87aa0c5609fc6d02cb070b0190bb6",
    ),
    "fault/stacked": (
        64,
        "f03985aca5dd2c0555628d3d77d3fcf509ed5364fa8477e9809136a4135e0c3d",
    ),
    "hetero-osts": (
        571,
        "ecd8e1f75ec58abcc32062100814b8105438c90faf5a1b18e7fa08abd2f9db2b",
    ),
    "mechanism/adaptbf-ewma/ost-crash": (
        225,
        "ef612615583ffb38cae04d20c8b1174fbf408219941c25d3be8c48f6881b2d17",
    ),
    "mechanism/adaptbf-ewma/poisson-storm": (
        328,
        "a5e1db7000f3d94028972033ccd91ce51e501c2f83f7e46e151b732cb81fd9d8",
    ),
    "mechanism/adaptbf/ost-crash": (
        218,
        "dcc0e1c690ec839cb28606617d8382c6bb11ef6cf660fbdea8b60de2ed777d64",
    ),
    "mechanism/none/ost-crash": (
        352,
        "cf127031c9c814557307d29ead664b5792ca6e7dcc4b57ece72901d96ee61040",
    ),
    "mechanism/none/poisson-storm": (
        496,
        "b9f82a0a2cd6e3b0d7fdb859c390c913e7f7cf6589bd68b216a1801be0b989d7",
    ),
    "mechanism/pid/ost-crash": (
        156,
        "86d564a7b5474faa459a1617dc6452073e1b24eebd73ec8df2b33c53295f14cc",
    ),
    "mechanism/pid/poisson-storm": (
        196,
        "038045d403638c29b29bba31e609b852a10d7110e848b465f1961b3d077d8282",
    ),
    "mechanism/sdn/ost-crash": (
        341,
        "61131faf337290fb1e7bafbc4e09cfcfb03332cf9f12d08a20f993a8f6ac13cd",
    ),
    "mechanism/sdn/poisson-storm": (
        485,
        "17cc1d496ba092bce4eb95461c81cf8f773d320a2dba7d55ed1af7a471edb32f",
    ),
    "mechanism/static/ost-crash": (
        77,
        "c5ee0bcc8b8986267f06a22eecb70154e84f532a7ec1fde190cbdf279935f6c2",
    ),
    "mechanism/static/poisson-storm": (
        93,
        "39a87bafdc7095dfbd8266a496022bba5a046e06059e36789592a37540b9e365",
    ),
    "mechanism/vc/ost-crash": (
        352,
        "50f22368386b769100f81b62d1f2e3b384cb59de9d58f4ec8a51c67441cedc51",
    ),
    "mechanism/vc/poisson-storm": (
        463,
        "e4265dbc4be3e2c8f538c286418ea0a94d95eb8e30677df3517622f86c8bdbe7",
    ),
    "multiost": (
        500,
        "17e574d04fd1e206930959851804709a101f793615fdb91bd6baedb5f8f66acf",
    ),
    "poisson-storm": (
        329,
        "2779ec53b0ae38a76efb3a8f3e6ccc63afef4ad283fd70149bb41c7813feec01",
    ),
    "quickstart": (
        1021,
        "3725352ab72f1749069998856031b1927a54831d4cd2238a00c2ce61e61fcb05",
    ),
    "recompensation": (
        478,
        "0bc58869040a82be6e606c72407ce134457fe4920d8e4ccd1689059df5499ec3",
    ),
    "redistribution": (
        394,
        "c7e740a78a8da94b6ab770e2fcd2621cae2f25d38c45bc772e8c3c2df317c1f4",
    ),
    "scale-500ost": (
        3990,
        "be7e3946dd7f7d081830afcf6edcad58886b69fcf64c020439878ba616f94e69",
    ),
    "sdn/burst-storm": (
        97,
        "80039136fb88b79df1f9bf1e026c781c06631f5facb3ee76822fef1ebdd13e06",
    ),
    "sdn/ost-crash": (
        2048,
        "cee096a7fd7fc2a36fff4be7d6ca59e95c1dc210f2eb1d164e0fb9d67fdcfab5",
    ),
    "sdn/quickstart": (
        128,
        "e52868a19de0444d4ae21858aabf5e5c04e7e42d779fa50f613cb0e23845714c",
    ),
    "trace-replay": (
        48,
        "cc50d9fe54a19b551e4a6631e3c18a6e990429314ba79efd33087efe078d3033",
    ),
    "vc/burst-storm": (
        30,
        "741779d18502c6f88c08c0a13c8c0d020c1d3ff76d7fd4c6669282c1a98dfa22",
    ),
    "vc/ost-crash": (
        2048,
        "e1631c9fd7f386dffac7ef7c4b861b34335b9db054412612804b91991236496c",
    ),
    "vc/quickstart": (
        128,
        "d92fb644364c207b32f3eb4c15d06098c3c400543d38c75a670f5e53075b4c80",
    ),
}

#: Figure → {CSV file name: SHA-256}.
FIGURE_GOLDENS = {
    "fig3": {
        "fig3_records_adaptbf.csv": (
            "9010d4bf278ef271608ebc4049b8f0394cdfd8395fbc4e2bc4f37050e9f37781"
        ),
        "fig3_summary.csv": (
            "8ccf4826552f6431cf86bc0785090794d384bf6196a667cf105992d48968365a"
        ),
        "fig3_timeline_adaptbf.csv": (
            "6b39d1d423744f2dd677589186d22b3864c7d5d1f7f13301477ce6a74c7853f6"
        ),
        "fig3_timeline_none.csv": (
            "420b62f77b7f0095f197a19849884a3da909e4f8042364a8d6270f6c4193521e"
        ),
        "fig3_timeline_static.csv": (
            "16b24d734c502aa994516a194c30ef5436cffe2b784ad95454d8224141582b96"
        ),
    },
    "fig5": {
        "fig5_records_adaptbf.csv": (
            "9bc4cbddbd7d19b103b077b0c14217885217ee23a2b39e0148142ecdda74d703"
        ),
        "fig5_summary.csv": (
            "44a239320a71083614cf129e6cadd2a7b384bf8fa67dbe11b975db105cd969b5"
        ),
        "fig5_timeline_adaptbf.csv": (
            "f8fe88523b80a180cc95b7a12e558ffc9973b62dde451bf3be924a5e19abe308"
        ),
        "fig5_timeline_none.csv": (
            "faf5dcb6d540e4013f5f901ca1f7ed15e24a56c7270ab00ab77e8daadbd1d89d"
        ),
        "fig5_timeline_static.csv": (
            "19c34ee16c827e0524bd251e34a66d2fd6428f666cf95c08be358de7be946d35"
        ),
    },
    "fig7": {
        "fig7_records_adaptbf.csv": (
            "e2456f3d77c875273d34d93f8f34724f77ef18375110307c557cd354c9a9096a"
        ),
        "fig7_summary.csv": (
            "a5ac3e2515ac293bbeb2a47c9368f366622b8c50470cdc36c6c880d557c486c5"
        ),
        "fig7_timeline_adaptbf.csv": (
            "85499bec4940ddf1c1c0aed63bd0d98877dc79aad947a4986d37d8d76f6acb89"
        ),
        "fig7_timeline_none.csv": (
            "a864ea693956b7efa05b0683ba48198dbe0e7fe7713f5767835180182c5ba962"
        ),
        "fig7_timeline_static.csv": (
            "303054c20f34fbc9ccb733c7a1d44cbba666994351dd5fb0088ce6aa181bda00"
        ),
    },
}

#: fig9's sweep at ``bench_scale()``: artifact name → SHA-256.
FIG9_GOLDENS = {
    "rows.json": "6ebe66f8c99469d78fb57e2f7648a75933a1941fc724b734a495ccc12ec7dc10",
    "rows.csv": "0c7711553e6495c5f5c6ef8f6187a7c6eadbc4031665676d0b5dc89a29a27953",
}

#: Campaign → SHA-256 of ``rows.json`` (identical for every worker count).
CAMPAIGN_GOLDENS = {
    "chaos-shootout": (
        "075f84097ae0544f7af9c1f3e2e1a6b8191ddb7ab56849dce5935f57a2ae6e41"
    ),
    "decentralization-tax": (
        "fe88d6503e8cedf776ceb0d3a93958e47f543ecc7bc52dd54d6c6017f87ad978"
    ),
}

#: (seed, crash) → (completed RPCs, SHA-256 of the churn stack's records).
CHURN_GOLDENS = {
    (25, False): (
        372,
        "af426748ba45053f20c15e671687a2582e6b16256643191d50eed58cf67027c8",
    ),
    (25, True): (
        397,
        "504e1515385df454a0ebb388fd932e9918e396378b1c52ccd397186484af40b2",
    ),
    (26, False): (
        298,
        "099eb5fd7187f7eb194404040723c4b8569f9a9f18ca2e043c60374ea551cb73",
    ),
    (26, True): (
        234,
        "be01849e53c3840d80b87bc2d586f5b9fa90222438a7e9a2632a5628ded6345f",
    ),
    (29, False): (
        398,
        "4f236c0bb08893f3492f6d9153ebbbe49ee8ed1bf48ce429650a335f55ed34ca",
    ),
    (29, True): (
        430,
        "ae3cb339832c9fdafa2f248e80adac71729e63c3dcd27d53fdc1c255770000b5",
    ),
    (33, False): (
        575,
        "dcabc3cc1b00eb8938c65287b57beb67ce6542d65c31f0ae10c3459ad6a2c7c6",
    ),
    (33, True): (
        442,
        "8b7def86286739e1cd629bf456ed09123fa23b058ee7f89274d16bcafd7770eb",
    ),
}

FIGURES = {"fig3": fig3_fig4, "fig5": fig5_fig6, "fig7": fig7_fig8}


def test_every_scenario_case_has_a_service_golden():
    assert set(SERVICE_GOLDENS) == set(SCENARIO_CASES)


@pytest.mark.parametrize("name", sorted(SCENARIO_CASES))
def test_service_records_match_golden(name):
    assert service_digest(SCENARIO_CASES[name]()) == SERVICE_GOLDENS[name]


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_csvs_match_golden(figure, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    digests = figure_digests(FIGURES[figure], figure, tmp_path)
    assert digests == FIGURE_GOLDENS[figure]


def test_fig9_sweep_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert fig9_digests(tmp_path) == FIG9_GOLDENS


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CAMPAIGN_GOLDENS))
def test_campaign_rows_match_golden(name, jobs, tmp_path):
    assert campaign_rows_digest(name, jobs, tmp_path) == CAMPAIGN_GOLDENS[name]


@pytest.mark.parametrize("seed, crash", sorted(CHURN_GOLDENS))
def test_rule_churn_stack_matches_golden(seed, crash):
    assert churn_digest(seed, crash) == CHURN_GOLDENS[seed, crash]
