"""Tests for the unified experiment CLI (run / list / describe)."""

import pytest

from repro.experiments.__main__ import AXES, main

#: Per CLI axis: names ``list`` must show, one entry to ``describe`` with
#: fragments its output must contain, and that entry's ``_`` alias.
AXIS_CASES = {
    "campaign": {
        "listed": ("freq-sweep", "burst-grid", "scale-osts"),
        "describe": "freq-sweep",
        # The spec hash is the store/resume identity key; describe must
        # surface it so a sweep can be matched to its durable store.
        "fragments": ("interval_s", "recompensation", "--param", "hash="),
        "alias": "freq_sweep",
    },
    "mechanism": {
        "listed": ("none", "static", "adaptbf", "adaptbf-ewma", "pid"),
        "describe": "pid",
        "fragments": ("kp", "ki", "mechanism: pid", "--mechanism-param"),
        "alias": "adaptbf_ewma",
    },
    "workload": {
        "listed": ("seq-write", "seq-read", "poisson", "trace-replay"),
        "describe": "on-off",
        "fragments": ("on_mib", "OnOffPattern", "--workload-param"),
        "alias": "trace_replay",
    },
    "fault": {
        "listed": ("ost-crash", "ost-degrade", "net-delay", "client-churn"),
        "describe": "ost-crash",
        "fragments": ("start_s", "disturbance window", "--fault-param"),
        "alias": "ost_crash",
    },
}


class TestList:
    def test_lists_figures_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig9", "overhead", "quickstart", "burst-storm"):
            assert name in out


class TestAxisCommands:
    """The generated ``<axis> list|describe`` commands, one case per axis."""

    def test_cases_cover_every_axis(self):
        assert set(AXIS_CASES) == {axis.command for axis in AXES}

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.command)
    def test_list(self, axis, capsys):
        assert main([axis.command, "list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(axis.heading + "\n")
        for name in AXIS_CASES[axis.command]["listed"]:
            assert f"  {name} " in out
        assert set(axis.registry.names()) <= set(out.split())
        assert out.endswith(axis.usage + "\n")

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.command)
    def test_describe(self, axis, capsys):
        case = AXIS_CASES[axis.command]
        assert main([axis.command, "describe", case["describe"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{case['describe']}: ")
        for fragment in case["fragments"]:
            assert fragment in out

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.command)
    def test_describe_unknown_exits(self, axis):
        with pytest.raises(SystemExit, match=f"unknown {axis.command} 'nope'"):
            main([axis.command, "describe", "nope"])

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.command)
    def test_describe_underscore_alias(self, axis, capsys):
        alias = AXIS_CASES[axis.command]["alias"]
        assert main([axis.command, "describe", alias]) == 0
        assert capsys.readouterr().out.startswith(alias.replace("_", "-") + ": ")

    @pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.command)
    def test_top_level_list_points_at_axis(self, axis, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert f"(see `{axis.command} list`):" in out
        for name in AXIS_CASES[axis.command]["listed"]:
            assert f"  {name} " in out


class TestDescribe:
    def test_describe_registered_scenario(self, capsys):
        assert main(["describe", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "--param" in out
        assert "topology:" in out

    def test_describe_figure_points_at_scenario(self, capsys):
        assert main(["describe", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "allocation" in out
        assert "mechanisms" in out

    def test_describe_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["describe", "nope"])


class TestRun:
    def test_run_registered_scenario_with_overrides(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--duration",
                "0.5",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved bandwidth (adaptbf)" in out
        assert "science" in out and "hog" in out

    def test_run_mechanism_override(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--mechanism",
                "none",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        assert "achieved bandwidth (none)" in capsys.readouterr().out

    def test_run_underscore_alias(self, capsys):
        code = main(
            ["run", "burst_storm", "--param", "n_jobs=2", "--duration", "0.5"]
        )
        assert code == 0
        assert "storm1" in capsys.readouterr().out

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-scenario"])

    def test_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--param", "bogus=1"])

    def test_csv_export(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--param",
                "file_mib=16",
                "--csv",
                str(tmp_path),
            ]
        )
        assert code == 0
        written = list(tmp_path.glob("quickstart_*.csv"))
        assert written

    def test_figure_rejects_non_scale_param(self):
        with pytest.raises(SystemExit, match=r"accept only .*got \['bogus'\]"):
            main(["run", "fig3", "--param", "bogus=1"])

    def test_figure_param_type_error_exits(self):
        with pytest.raises(
            SystemExit, match="parameter 'heavy_procs': expected int, got '2.5'"
        ):
            main(["run", "fig5", "--param", "heavy_procs=2.5"])

    @pytest.mark.parametrize("figure", ["fig3", "fig9", "all"])
    @pytest.mark.parametrize(
        "param", ["data_scale=nan", "time_scale=inf", "data_scale=0"]
    )
    def test_figure_rejects_bad_scale_before_running(
        self, figure, param, monkeypatch
    ):
        import repro.experiments.__main__ as cli

        def no_run(*args, **kwargs):
            raise AssertionError("a figure ran with an invalid scale")

        monkeypatch.setattr(cli, "_run_figure", no_run)
        key = param.split("=")[0]
        with pytest.raises(SystemExit, match=f"{key} must be positive and finite"):
            main(["run", figure, "--param", param])

    def test_legacy_invocation_rewritten(self, capsys):
        """`python -m repro.experiments fig3 ...` still parses as `run fig3`."""
        import repro.experiments.__main__ as cli

        captured = {}

        def fake_run_figures(name, args, params):
            captured["name"] = name
            captured["full"] = args.full
            return True

        original = cli._run_figures
        cli._run_figures = fake_run_figures
        try:
            assert main(["fig3", "--full"]) == 0
        finally:
            cli._run_figures = original
        assert captured == {"name": "fig3", "full": True}


class TestCampaign:
    def test_campaign_run_with_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "run",
                "scale-osts",
                "--param",
                "osts=1",
                "--param",
                "capacities=128",
                "--param",
                "file_mib=8",
                "--param",
                "procs=2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'scale-osts'" in out
        assert "MiB/s" in out
        for artifact in ("manifest.json", "rows.json", "rows.csv", "timing.json"):
            assert (tmp_path / artifact).exists()

    def test_campaign_store_run_status_resume_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = [
            "campaign", "run", "scale-osts",
            "--param", "osts=1",
            "--param", "capacities=128,192",
            "--param", "file_mib=8",
            "--param", "procs=2",
            "--store", store,
        ]
        # Half the sweep, with per-cell progress lines.
        assert main(base + ["--max-cells", "1", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] cell 0:" in out
        assert "campaign incomplete" in out

        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "1/2 committed" in out
        assert "campaign resume" in out

        assert main(["campaign", "resume", store]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 already-committed" in out

        assert main(["campaign", "status", store]) == 0
        assert "complete" in capsys.readouterr().out

    def test_campaign_fresh_run_on_dirty_store_exits(self, tmp_path, capsys):
        base = [
            "campaign", "run", "scale-osts",
            "--param", "osts=1",
            "--param", "capacities=128,192",
            "--param", "file_mib=8",
            "--param", "procs=2",
            "--store", str(tmp_path / "s.db"),
        ]
        assert main(base + ["--max-cells", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="resume"):
            main(base)
        # --resume picks the half-finished sweep back up instead.
        assert main(base + ["--resume"]) == 0

    def test_campaign_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign", "run", "freq-sweep", "--resume",
                ]
            )

    def test_campaign_status_empty_store_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign"):
            main(["campaign", "status", str(tmp_path / "empty")])

    def test_campaign_run_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "freq-sweep", "--param", "bogus=1"])

    def test_campaign_run_backend_param_exits(self):
        with pytest.raises(SystemExit, match="no parameter 'backend'"):
            main(["campaign", "run", "mechanism-shootout", "--param", "backend=heap"])

    def test_campaign_run_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "not-a-campaign"])

class TestMechanismCli:
    def test_run_with_new_mechanism_and_params(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--mechanism",
                "pid",
                "--mechanism-param",
                "kp=0.9",
                "--param",
                "file_mib=16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved bandwidth (pid)" in out
        assert "kp=0.9" in out  # spec header records the override

    def test_run_unknown_mechanism_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--mechanism", "bogus"])

    def test_run_unknown_mechanism_param_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "quickstart",
                    "--mechanism",
                    "pid",
                    "--mechanism-param",
                    "bogus=1",
                ]
            )

    def test_shootout_reports_comparison_table(self, capsys):
        code = main(
            [
                "campaign",
                "run",
                "mechanism-shootout",
                "--param",
                "mechanisms=none,static",
                "--param",
                "scenario=quickstart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mechanism shootout" in out
        assert "fairness" in out


class TestWorkloadCli:
    def test_run_with_workload_override(self, capsys):
        code = main(
            [
                "run",
                "quickstart",
                "--workload",
                "seq-read",
                "--workload-param",
                "total_mib=8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: seq-read" in out
        assert "achieved bandwidth (adaptbf)" in out

    def test_run_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--workload", "bogus"])

    def test_run_unknown_workload_param_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "quickstart",
                    "--workload",
                    "poisson",
                    "--workload-param",
                    "bogus=1",
                ]
            )

    def test_workload_param_without_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "quickstart", "--workload-param", "total_mib=8"])

    def test_figure_adapters_reject_workload_flags(self):
        with pytest.raises(SystemExit):
            main(["run", "fig3", "--workload", "poisson"])

    def test_run_trace_replay_scenario(self, capsys):
        code = main(
            [
                "run",
                "trace-replay",
                "--param",
                "time_scale=0.25",
                "--param",
                "data_scale=0.25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingest" in out and "analysis" in out and "checkpoint" in out
