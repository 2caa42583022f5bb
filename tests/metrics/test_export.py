"""Tests for CSV export and the CLI runner."""

import csv

import pytest

from repro.metrics.export import (
    export_all,
    export_records,
    export_summary,
    export_timeline,
)
from repro.metrics.timeline import Timeline
from repro.scenarios import PolicySpec, ScenarioSpec, TopologySpec, run_scenario
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def small_result(mechanism="adaptbf"):
    jobs = tuple(
        JobSpec(
            job_id=f"j{i}",
            nodes=i + 1,
            processes=(ProcessSpec(SequentialWritePattern(10 * MIB)),),
        )
        for i in range(2)
    )
    return run_scenario(
        ScenarioSpec(
            name="export",
            jobs=jobs,
            topology=TopologySpec(capacity_mib_s=100),
            policy=PolicySpec(mechanism=mechanism),
        )
    )


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


class TestExportTimeline:
    def test_header_and_rows(self, tmp_path):
        tl = Timeline(bin_s=0.1)
        tl.record("a", 0.05, MIB)
        tl.record("b", 0.15, 2 * MIB)
        path = export_timeline(tl, tmp_path / "tl.csv")
        rows = read_csv(path)
        assert rows[0] == ["time_s", "a", "b", "aggregate"]
        assert len(rows) == 3  # header + 2 bins
        assert float(rows[1][1]) == pytest.approx(10.0)  # 1 MiB / 0.1 s
        assert float(rows[2][3]) == pytest.approx(20.0)

    def test_creates_directories(self, tmp_path):
        tl = Timeline()
        tl.record("a", 0.05, MIB)
        path = export_timeline(tl, tmp_path / "deep" / "dir" / "tl.csv")
        assert path.exists()


class TestExportSummaryAndRecords:
    def test_summary_rows_per_mechanism(self, tmp_path):
        results = {
            "none": small_result("none"),
            "adaptbf": small_result("adaptbf"),
        }
        path = export_summary(
            {m: r.summary for m, r in results.items()}, tmp_path / "s.csv"
        )
        rows = read_csv(path)
        assert rows[0] == ["mechanism", "j0", "j1", "aggregate_mib_s"]
        assert {r[0] for r in rows[1:]} == {"none", "adaptbf"}

    def test_records_columns(self, tmp_path):
        result = small_result()
        path = export_records(result, tmp_path / "r.csv")
        rows = read_csv(path)
        assert rows[0][0] == "time_s"
        assert "j0_record" in rows[0] and "j1_demand" in rows[0]
        assert len(rows) == len(result.history) + 1

    def test_export_all_bundle(self, tmp_path):
        results = {
            "none": small_result("none"),
            "adaptbf": small_result("adaptbf"),
        }
        written = export_all(results, tmp_path, prefix="e1")
        assert (tmp_path / "e1_summary.csv").exists()
        assert (tmp_path / "e1_timeline_none.csv").exists()
        assert (tmp_path / "e1_records_adaptbf.csv").exists()
        # Baselines have no history => no records file.
        assert "records_none" not in written


class TestCli:
    def test_cli_overhead_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "us per job" in out

    def test_cli_fig3_with_csv(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig3", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig3_summary.csv").exists()
        out = capsys.readouterr().out
        assert "Fig 4(a)" in out

    def test_cli_rejects_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figX"])
