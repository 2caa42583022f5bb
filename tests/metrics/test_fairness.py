"""Tests for Jain's fairness index, including on real experiment output."""

import pytest

from repro.experiments import fig3_fig4
from repro.metrics.summary import BandwidthSummary, jain_index


def summary_of(per_job):
    return BandwidthSummary(
        mechanism="x",
        duration_s=1.0,
        per_job_mib_s=per_job,
        aggregate_mib_s=sum(per_job.values()),
    )


def test_equal_shares_are_perfectly_fair():
    assert jain_index(summary_of({"a": 10.0, "b": 10.0, "c": 10.0})) == 1.0


def test_single_hog_scores_one_over_n():
    assert jain_index(
        summary_of({"a": 30.0, "b": 0.0, "c": 0.0})
    ) == pytest.approx(1 / 3)


def test_weighted_index_rewards_proportionality():
    # Bandwidth exactly proportional to weights: weighted index = 1.
    summary = summary_of({"a": 10.0, "b": 30.0})
    assert jain_index(summary, weights={"a": 1.0, "b": 3.0}) == pytest.approx(
        1.0
    )
    # Unweighted, the same split is unfair.
    assert jain_index(summary) < 1.0


def test_all_zero_is_vacuously_fair():
    assert jain_index(summary_of({"a": 0.0, "b": 0.0})) == 1.0


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        jain_index(summary_of({"a": 1.0}), weights={"a": 0.0})


def test_adaptbf_sits_between_fcfs_and_static_on_fairness():
    """The paper's positioning, quantified with a weighted Jain index.

    Static BW is *perfectly* priority-proportional (index 1.0) but wastes
    the server; No BW is throughput-optimal but priority-blind.  AdapTBF
    must land strictly between them on weighted fairness while keeping
    near-FCFS aggregate throughput — that combination is the contribution.
    """
    cmp = fig3_fig4.run({"data_scale": 1 / 32, "time_scale": 1 / 10})
    weights = {job.job_id: float(job.nodes) for job in cmp.scenario.jobs}
    fair = {
        m: jain_index(cmp.results[m].summary, weights=weights)
        for m in ("none", "static", "adaptbf")
    }
    assert fair["none"] < fair["adaptbf"] <= fair["static"]
    assert fair["static"] == pytest.approx(1.0, abs=1e-3)
    # ... and unlike Static, AdapTBF pays almost nothing in throughput.
    assert (
        cmp.adaptbf.summary.aggregate_mib_s
        > 2 * cmp.static.summary.aggregate_mib_s
    )
    assert (
        cmp.adaptbf.summary.aggregate_mib_s
        > 0.9 * cmp.none.summary.aggregate_mib_s
    )
