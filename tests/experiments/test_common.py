"""Tests for the shared experiment plumbing (scales, comparison helpers)."""

import pytest

from repro.experiments.common import MechanismComparison, bench_scale, full_scale
from repro.scenarios import REGISTRY
from repro.scenarios.runner import run_mechanisms


def test_full_scale_is_paper_configuration():
    assert full_scale() == {"data_scale": 1.0, "time_scale": 1.0}


def test_bench_scale_reduced_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    scale = bench_scale()
    assert scale["data_scale"] < 1.0
    assert scale["time_scale"] < 1.0
    assert scale["data_scale"] == scale["time_scale"]  # uniform scaling


def test_bench_scale_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    assert bench_scale() == full_scale()


def test_scales_are_registered_scenario_overrides(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    for scale in (bench_scale(), full_scale()):
        for name in ("allocation", "redistribution", "recompensation"):
            REGISTRY.build(name, **scale)
    # bench_scale() is exactly the registered factories' defaults.
    assert REGISTRY.build("allocation", **bench_scale()) == REGISTRY.build(
        "allocation"
    )


def small_allocation():
    return REGISTRY.build(
        "allocation", data_scale=1 / 256, heavy_procs=2
    ).with_topology(capacity_mib_s=256)


class TestMechanismComparison:
    @pytest.fixture(scope="class")
    def cmp(self):
        spec = small_allocation()
        return MechanismComparison(spec, run_mechanisms(spec))

    def test_all_three_mechanisms_present(self, cmp):
        assert set(cmp.results) == {"none", "static", "adaptbf"}
        assert cmp.none.mechanism == "none"
        assert cmp.static.mechanism == "static"
        assert cmp.adaptbf.mechanism == "adaptbf"

    def test_job_ids_follow_scenario(self, cmp):
        assert cmp.job_ids == ["job1", "job2", "job3", "job4"]

    def test_bandwidth_table_contains_all_mechanisms(self, cmp):
        table = cmp.bandwidth_table("T")
        for mechanism in ("none", "static", "adaptbf"):
            assert mechanism in table
        assert "overall" in table

    def test_gains_table_references_baseline(self, cmp):
        table = cmp.gains_table("none", "G")
        assert "aggregate" in table

    def test_timeline_report_covers_all_jobs(self, cmp):
        report = cmp.timeline_report("adaptbf")
        for job in cmp.job_ids:
            assert job in report

    def test_isolated_mechanism_subset(self):
        spec = small_allocation()
        cmp = MechanismComparison(spec, run_mechanisms(spec, ("adaptbf",)))
        assert set(cmp.results) == {"adaptbf"}
