"""Ablation bench — quantifies each AdapTBF design element (§III-C).

Runs the §IV-E redistribution scenario under the full algorithm and the
three ablated variants (:mod:`repro.core.ablation`), printing aggregate
throughput, hog bandwidth and burst-job bandwidth per variant.

Expected ordering (asserted):

* ``priority_only`` (no borrowing) under-utilizes the OST whenever the
  bursty jobs are *active but not saturating their shares* — note it is
  still far better than Static BW because the initial allocation adapts to
  the active set (an idle bursty job cedes its entire share), so the gap
  to the full algorithm isolates the *redistribution* step specifically;
* the full algorithm work-conserves: the hog borrows surplus tokens
  whenever any active job under-uses its share, so hog and aggregate
  bandwidth are strictly higher;
* ``no_recompensation`` matches the full algorithm on throughput here
  (re-compensation is about long-term fairness, not instantaneous rate) —
  its cost shows in the records, which drift without bound.
"""

from repro.experiments.common import bench_scale
from repro.metrics.tables import format_table
from repro.scenarios import REGISTRY, run_scenario

VARIANT_NAMES = ("full", "priority_only", "no_recompensation", "priority_blind_df")


def run_ablation():
    spec = REGISTRY.build("redistribution", mechanism="adaptbf", **bench_scale())
    return {
        variant: run_scenario(spec.with_policy(variant=variant))
        for variant in VARIANT_NAMES
    }


def test_ablation_variants(benchmark, print_report):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for variant, result in results.items():
        summary = result.summary
        burst_bw = sum(summary.job(f"job{i}") for i in (1, 2, 3))
        final_records = result.history[-1].records if result.history else {}
        rows.append(
            [
                variant,
                summary.aggregate_mib_s,
                summary.job("job4"),
                burst_bw,
                final_records.get("job4", 0),
            ]
        )
    print_report(
        format_table(
            ["variant", "aggregate MiB/s", "hog MiB/s", "bursty MiB/s", "hog record"],
            rows,
            title="Ablation: §IV-E workload under AdapTBF variants",
        )
    )

    full = results["full"].summary
    prio_only = results["priority_only"].summary
    # Redistribution is what work-conserves: without it the hog only gets
    # the whole budget when it is the *sole* active job, never a share of
    # other active jobs' surplus.
    assert prio_only.job("job4") < 0.8 * full.job("job4")
    assert prio_only.aggregate_mib_s < full.aggregate_mib_s

    # Without re-compensation the ledger drifts: the hog's debt keeps
    # growing instead of being reclaimed.
    full_debt = results["full"].history[-1].records.get("job4", 0)
    norec_debt = results["no_recompensation"].history[-1].records.get("job4", 0)
    assert norec_debt < full_debt <= 0
