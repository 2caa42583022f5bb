"""Demand-estimator bench — the §IV-E "pattern hint" extension (E8, ours).

Compares the paper's last-value demand assumption (Eq. 11) against the
EWMA and peak-hold estimators from :mod:`repro.core.prediction` on the
§IV-F lending/re-compensation workload.  Reported per estimator: aggregate
throughput, the bursty jobs' bandwidth and how much reclaim traffic the
re-compensation step generated.  Estimator choice shifts *when* tokens are
clawed back, not the ledger's zero-sum accounting.
"""

from repro.core.allocation import TokenAllocationAlgorithm
from repro.core.prediction import (
    EwmaEstimator,
    LastValueEstimator,
    PeakHoldEstimator,
)
from repro.experiments.common import bench_scale
from repro.metrics.tables import format_table
from repro.scenarios import REGISTRY, run_scenario

ESTIMATORS = {
    "last_value (paper)": LastValueEstimator,
    "ewma(0.4)": lambda: EwmaEstimator(alpha=0.4),
    "peak_hold(10)": lambda: PeakHoldEstimator(window=10),
}


def run_comparison():
    spec = REGISTRY.build("recompensation", mechanism="adaptbf", **bench_scale())
    results = {}
    for name, estimator_factory in ESTIMATORS.items():
        result = run_scenario(
            spec,
            algorithm_factory=lambda f=estimator_factory: TokenAllocationAlgorithm(
                demand_estimator=f()
            ),
        )
        results[name] = result
    return results


def test_estimator_comparison(benchmark, print_report):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    rows = []
    reclaim = {}
    for name, result in results.items():
        summary = result.summary
        burst_bw = sum(summary.job(f"job{i}") for i in (1, 2, 3))
        reclaim[name] = sum(r.result.reclaimed_pool for r in result.history)
        rows.append(
            [name, summary.aggregate_mib_s, burst_bw, reclaim[name]]
        )
    print_report(
        format_table(
            ["estimator", "aggregate MiB/s", "jobs1-3 MiB/s", "tokens reclaimed"],
            rows,
            title="E8 (ours): §IV-F workload under different demand estimators",
        )
    )

    # Structural guarantees hold for every estimator: the ledger is zero-sum
    # at every recorded round, and the system still moves data.
    for name, result in results.items():
        assert result.summary.aggregate_mib_s > 0, name
        for round_ in result.history:
            assert sum(round_.records.values()) == 0, name
    # Peak-hold defers reclaim relative to the paper's last-value (Eq. 13's
    # head-room term shrinks when future demand is anticipated).
    assert reclaim["peak_hold(10)"] <= reclaim["last_value (paper)"] * 1.05
