"""Tests for the campaign executor: serial fallback, fan-out, reduction."""

import pytest

from repro.campaigns import (
    CampaignSummary,
    ParameterAxis,
    run_campaign,
    run_cell,
)
from repro.campaigns.aggregate import percentile
from repro.scenarios import REGISTRY

# The shared two-cell quickstart sweep comes from the package conftest's
# session-scoped ``tiny_campaign`` factory fixture.


class TestSerialExecution:
    def test_one_outcome_per_cell_in_index_order(self, tiny_campaign):
        result = run_campaign(tiny_campaign(), jobs=1)
        assert [o.index for o in result.outcomes] == [0, 1]
        assert result.jobs == 1
        assert result.wall_s > 0
        assert all(o.wall_s > 0 for o in result.outcomes)

    def test_rows_carry_sweep_metrics(self, tiny_campaign):
        # Files sized to span several 100 ms allocation rounds, so the
        # controller/rule-churn columns have something to report.
        result = run_campaign(
            tiny_campaign(base_params={"file_mib": 48.0, "procs": 2}),
            jobs=1,
        )
        for outcome in result.outcomes:
            row = outcome.row
            assert row.scenario == "quickstart"
            assert row.mechanism == "adaptbf"
            assert row.aggregate_mib_s > 0
            assert 0 < row.fairness <= 1.0
            assert set(row.per_job_mib_s) == {"science", "hog"}
            assert row.rpcs_completed > 0
            assert (
                row.latency_p50_ms
                <= row.latency_p95_ms
                <= row.latency_p99_ms
            )
            assert row.rule_churn == (
                row.rules_created + row.rules_stopped + row.rate_changes
            )
            assert row.rounds_run > 0

    def test_jobs_must_be_positive(self, tiny_campaign):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(tiny_campaign(), jobs=0)

    def test_progress_callback_sees_every_cell(self, tiny_campaign):
        seen = []
        run_campaign(
            tiny_campaign(),
            jobs=1,
            progress=lambda outcome, total: seen.append(
                (outcome.index, total)
            ),
        )
        assert seen == [(0, 2), (1, 2)]


class TestParallelExecution:
    def test_parallel_rows_identical_to_serial(self, tiny_campaign):
        campaign = tiny_campaign()
        serial = run_campaign(campaign, jobs=1)
        parallel = run_campaign(campaign, jobs=2)
        assert [o.index for o in parallel.outcomes] == [0, 1]
        assert parallel.rows == serial.rows
        assert [o.seed for o in parallel.outcomes] == [
            o.seed for o in serial.outcomes
        ]

    def test_more_workers_than_cells(self, tiny_campaign):
        result = run_campaign(tiny_campaign(), jobs=8)
        assert len(result.outcomes) == 2

    def test_invalid_cell_fails_fast_before_pool(self, tiny_campaign):
        # Cells resolve in the parent, so a bad axis value surfaces as a
        # spec validation error before any worker process spins up.
        bad = tiny_campaign(
            axes=(ParameterAxis("capacity_mib_s", (512.0, -1.0)),)
        )
        with pytest.raises(ValueError, match="capacity"):
            run_campaign(bad, jobs=2)


class TestReduction:
    def test_run_cell_matches_run_scenario_physics(self, tiny_campaign):
        """The sweep trim (no history, summary-only metrics) must not
        change the simulated numbers."""
        from repro.scenarios.runner import run_scenario

        campaign = tiny_campaign()
        cell = campaign.cells()[0]
        spec = campaign.resolve(cell)
        row = run_cell(spec)
        full = run_scenario(spec)
        assert row.aggregate_mib_s == full.summary.aggregate_mib_s
        assert row.per_job_mib_s == full.summary.per_job_mib_s
        assert row.duration_s == full.duration_s

    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 99) == 40.0
        assert percentile(values, 100) == 40.0
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_baseline_mechanism_has_zero_churn(self, tiny_campaign):
        campaign = tiny_campaign(base_params={"mechanism": "none", "file_mib": 8.0})
        result = run_campaign(campaign, jobs=1)
        for outcome in result.outcomes:
            assert outcome.row.rule_churn == 0
            assert outcome.row.rounds_run == 0

    def test_summary_streams_across_outcomes(self, tiny_campaign):
        result = run_campaign(tiny_campaign(), jobs=1)
        summary = CampaignSummary()
        for outcome in result.outcomes:
            summary.add(outcome)
        assert summary.cells == 2
        assert summary.aggregate_min <= summary.aggregate_mean
        assert summary.aggregate_mean <= summary.aggregate_max
        best = result.outcomes[summary.best_cell_index]
        assert best.row.aggregate_mib_s == summary.aggregate_max
        assert summary.as_dict()["cells"] == 2


class TestFig9Port:
    def test_fig9_through_campaign_matches_direct_pipeline(self):
        """The ported Fig. 9 sweep must reproduce what a hand-rolled loop
        over run_scenario yields for the same intervals."""
        from repro.experiments import fig9
        from repro.scenarios.runner import run_scenario

        scale = {"data_scale": 1 / 16, "time_scale": 1 / 16}
        intervals = (0.1, 0.5)
        sweep = fig9.run(scale, intervals_s=intervals)
        for paper_interval in intervals:
            interval = paper_interval * scale["time_scale"]
            spec = REGISTRY.build(
                "recompensation", interval_s=interval, **scale
            )
            direct = run_scenario(spec)
            assert sweep.aggregate(interval) == pytest.approx(
                direct.summary.aggregate_mib_s
            )

    def test_fig9_parallel_equals_serial(self):
        from repro.experiments import fig9

        scale = {"data_scale": 1 / 16, "time_scale": 1 / 16}
        serial = fig9.run(scale, intervals_s=(0.1, 0.5), jobs=1)
        parallel = fig9.run(scale, intervals_s=(0.1, 0.5), jobs=2)
        assert serial.aggregates == parallel.aggregates
