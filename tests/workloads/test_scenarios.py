"""Unit tests for the paper-mix scenario factories (§IV-D/E/F)."""

import math

import pytest

from repro.scenarios import REGISTRY
from repro.workloads.spec import JobSpec, ProcessSpec, validate_jobs
from repro.workloads.patterns import SequentialWritePattern

GIB = 1 << 30
MIB = 1 << 20

#: The paper's own configuration (the factories default to bench scale).
PAPER = {"data_scale": 1.0, "time_scale": 1.0}


def file_bytes(spec):
    return spec.jobs[0].processes[0].pattern.total_bytes_hint()


class TestScale:
    def test_defaults_are_bench_scale(self):
        spec = REGISTRY.build("allocation")
        assert file_bytes(spec) == int(GIB * 0.1)

    def test_paper_scale(self):
        spec = REGISTRY.build("recompensation", **PAPER)
        assert spec.jobs[0].processes[1].pattern.delay_s == 20.0
        assert file_bytes(REGISTRY.build("allocation", **PAPER)) == GIB

    def test_scaling(self):
        spec = REGISTRY.build("allocation", data_scale=0.5, time_scale=0.1)
        assert file_bytes(spec) == GIB // 2
        spec = REGISTRY.build("recompensation", data_scale=0.5, time_scale=0.1)
        assert spec.jobs[0].processes[1].pattern.delay_s == pytest.approx(2.0)

    def test_bytes_floor_at_one_mib(self):
        spec = REGISTRY.build("allocation", data_scale=1e-9)
        assert file_bytes(spec) == MIB

    @pytest.mark.parametrize(
        "params",
        [
            {"data_scale": 0},
            {"time_scale": -1},
            {"heavy_procs": 0},
            {"window": 0},
            {"capacity_mib_s": 0},
        ],
    )
    def test_invalid_scales(self, params):
        for name in ("allocation", "redistribution", "recompensation"):
            with pytest.raises(ValueError):
                REGISTRY.build(name, **params)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("param", ["data_scale", "time_scale", "capacity_mib_s"])
    @pytest.mark.parametrize(
        "name",
        ["allocation", "redistribution", "recompensation", "burst-storm", "elastic-churn"],
    )
    def test_non_finite_scales_rejected_at_build(self, name, param, value):
        with pytest.raises(ValueError, match=f"{param} must be positive and finite"):
            REGISTRY.build(name, **{param: value})

    def test_continuous_sizing_spans_duration(self):
        # saturation 1.0: the hog's 16 writers together carry exactly
        # capacity x duration.
        spec = REGISTRY.build("recompensation", capacity_mib_s=1000.0, **PAPER)
        hog = spec.jobs[3]
        assert hog.total_bytes_hint == pytest.approx(
            1000 * MIB * spec.run.duration_s, rel=0.01
        )


class TestScenarioAllocation:
    def test_matches_paper_configuration(self):
        s = REGISTRY.build("allocation", **PAPER)
        assert [j.job_id for j in s.jobs] == ["job1", "job2", "job3", "job4"]
        assert [j.nodes for j in s.jobs] == [1, 1, 3, 5]  # 10/10/30/50 %
        assert all(len(j.processes) == 16 for j in s.jobs)
        # Paper: each file is 1 GiB.
        for job in s.jobs:
            for proc in job.processes:
                assert proc.pattern.total_bytes_hint() == GIB
        assert s.run.duration_s is None  # run to completion

    def test_nodes_mapping(self):
        s = REGISTRY.build("allocation")
        assert s.nodes == {"job1": 1, "job2": 1, "job3": 3, "job4": 5}


class TestScenarioRedistribution:
    def test_matches_paper_configuration(self):
        s = REGISTRY.build("redistribution", **PAPER)
        assert [j.nodes for j in s.jobs] == [3, 3, 3, 1]  # 30/30/30/10 %
        assert [len(j.processes) for j in s.jobs] == [2, 2, 2, 16]
        assert s.run.duration_s == pytest.approx(60.0)

    def test_bursts_interleave(self):
        s = REGISTRY.build("redistribution", **PAPER)
        delays = set()
        for job in s.jobs[:3]:
            for proc in job.processes:
                delays.add(proc.pattern.start_delay_s)
        assert len(delays) == 6  # all six burst streams offset differently

    def test_hog_outlives_window(self):
        s = REGISTRY.build("redistribution", capacity_mib_s=1024.0, **PAPER)
        hog = s.jobs[3]
        # Hog volume exceeds what the OST can deliver in the window.
        assert hog.total_bytes_hint > 1024 * MIB * s.run.duration_s


class TestScenarioRecompensation:
    def test_matches_paper_configuration(self):
        s = REGISTRY.build("recompensation", **PAPER)
        assert [j.nodes for j in s.jobs] == [1, 1, 1, 1]  # equal 25 %
        assert [len(j.processes) for j in s.jobs] == [2, 2, 2, 16]

    def test_delays_are_20_50_80(self):
        s = REGISTRY.build("recompensation", **PAPER)
        delays = [job.processes[1].pattern.delay_s for job in s.jobs[:3]]
        assert delays == [20.0, 50.0, 80.0]

    def test_job3_has_smallest_burst(self):
        s = REGISTRY.build("recompensation", **PAPER)
        bursts = [job.processes[0].pattern.burst_bytes for job in s.jobs[:3]]
        assert bursts[2] == min(bursts)

    def test_time_scale_compresses_delays(self):
        s = REGISTRY.build("recompensation", data_scale=1.0, time_scale=0.1)
        delays = [job.processes[1].pattern.delay_s for job in s.jobs[:3]]
        assert delays == pytest.approx([2.0, 5.0, 8.0])


class TestSpecValidation:
    def test_job_requires_processes(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="j", nodes=1, processes=())

    def test_job_requires_positive_nodes(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        with pytest.raises(ValueError):
            JobSpec(job_id="j", nodes=0, processes=(proc,))

    def test_job_requires_id(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        with pytest.raises(ValueError):
            JobSpec(job_id="", nodes=1, processes=(proc,))

    def test_process_requires_positive_window(self):
        with pytest.raises(ValueError):
            ProcessSpec(SequentialWritePattern(MIB), window=0)

    def test_duplicate_job_ids_rejected(self):
        proc = ProcessSpec(SequentialWritePattern(MIB))
        jobs = [
            JobSpec(job_id="same", nodes=1, processes=(proc,)),
            JobSpec(job_id="same", nodes=1, processes=(proc,)),
        ]
        with pytest.raises(ValueError):
            validate_jobs(jobs)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            validate_jobs([])

    def test_total_bytes_hint_sums_processes(self):
        procs = (
            ProcessSpec(SequentialWritePattern(MIB)),
            ProcessSpec(SequentialWritePattern(2 * MIB)),
        )
        job = JobSpec(job_id="j", nodes=1, processes=procs)
        assert job.total_bytes_hint == 3 * MIB
