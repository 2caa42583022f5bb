"""End-to-end reproduction tests: every paper figure's qualitative shape.

These are the repository's ground truth: each test runs a (reduced-scale)
paper experiment and asserts the claims the corresponding figure makes.
They are slower than unit tests (a few seconds each) but they are exactly
what "reproduces the paper" means.
"""

import pytest

from repro.experiments import fig3_fig4, fig5_fig6, fig7_fig8, fig9, overhead

#: Test scale: slightly smaller than the bench default to keep CI fast.
TEST_SCALE = {"data_scale": 1 / 16, "time_scale": 1 / 16}


@pytest.fixture(scope="module")
def e1():
    return fig3_fig4.run(TEST_SCALE)


@pytest.fixture(scope="module")
def e2():
    return fig5_fig6.run(TEST_SCALE)


@pytest.fixture(scope="module")
def e3():
    return fig7_fig8.run(TEST_SCALE)


class TestE1TokenAllocation:
    def test_all_shape_checks_pass(self, e1):
        for check in fig3_fig4.check_shapes(e1):
            assert check.passed, f"{check.claim}: {check.detail}"

    def test_all_mechanisms_completed_all_jobs(self, e1):
        for result in e1.results.values():
            assert result.clients_finished

    def test_static_wastes_bandwidth_after_departures(self, e1):
        # Static BW cannot reassign a finished job's share: lower aggregate.
        assert (
            e1.static.summary.aggregate_mib_s
            < 0.6 * e1.adaptbf.summary.aggregate_mib_s
        )

    def test_report_renders(self, e1):
        text = fig3_fig4.report(e1)
        assert "Fig 4(a)" in text and "Shape checks:" in text
        assert "FAIL" not in text


class TestE2TokenRedistribution:
    def test_all_shape_checks_pass(self, e2):
        for check in fig5_fig6.check_shapes(e2):
            assert check.passed, f"{check.claim}: {check.detail}"

    def test_no_bw_starves_bursty_jobs(self, e2):
        """§IV-E: the hog dominates under FCFS."""
        none = e2.none.summary
        assert none.job("job4") > 10 * max(
            none.job("job1"), none.job("job2"), none.job("job3")
        )

    def test_adaptbf_lends_idle_tokens_to_hog(self, e2):
        # Records: the bursty jobs lend (hog borrows) under AdapTBF.
        final_records = e2.adaptbf.history[-1].records
        assert final_records.get("job4", 0) < 0

    def test_report_renders(self, e2):
        text = fig5_fig6.report(e2)
        assert "Fig 6(a)" in text
        assert "FAIL" not in text


class TestE3TokenRecompensation:
    def test_all_shape_checks_pass(self, e3):
        for check in fig7_fig8.check_shapes(e3):
            assert check.passed, f"{check.claim}: {check.detail}"

    def test_lending_order_follows_delays(self, e3):
        """Jobs with later stream starts are reclaimed later (Fig. 7).

        The robust statistic is the *first significant decline* of the
        record from its running peak — i.e. when re-compensation starts —
        which tracks each job's stream-start delay.  (Peak time itself is
        not robust: a job whose stream finishes early starts lending again
        and can re-peak at the end of the window.)
        """

        def first_reclaim_time(job):
            running_peak, threshold_time = 0, None
            for t, record in e3.adaptbf.record_series(job):
                if record > running_peak:
                    running_peak = record
                elif running_peak > 0 and record < 0.8 * running_peak:
                    return t
            return float("inf")

        t1 = first_reclaim_time("job1")
        t3 = first_reclaim_time("job3")
        assert t1 < t3, (t1, t3)

    def test_report_renders(self, e3):
        text = fig7_fig8.report(e3)
        assert "Fig 7" in text and "Fig 8(a)" in text
        assert "FAIL" not in text


class TestE4FrequencySweep:
    def test_finer_interval_not_worse(self):
        sweep = fig9.run(TEST_SCALE, intervals_s=(0.1, 1.0))
        fine, coarse = sweep.intervals_s
        assert sweep.aggregate(fine) >= sweep.aggregate(coarse)

    def test_report_renders(self):
        sweep = fig9.run(TEST_SCALE, intervals_s=(0.1, 0.5))
        text = fig9.report(sweep)
        assert "Fig 9" in text


class TestE5Overhead:
    def test_linear_scaling(self):
        result = overhead.run(job_counts=(4, 32, 128), rounds=10)
        for check in overhead.check_shapes(result):
            assert check.passed, f"{check.claim}: {check.detail}"

    def test_us_per_job_reasonable(self):
        result = overhead.run(job_counts=(16,), rounds=5)
        # The paper's C prototype: <30 us/job.  Allow generous slack for
        # pure Python on arbitrary CI hardware.
        assert result.us_per_job[16] < 500.0

    def test_report_renders(self):
        result = overhead.run(job_counts=(4, 16), rounds=3)
        assert "us per job" in overhead.report(result)
