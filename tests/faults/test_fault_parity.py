"""Figure-CSV stability: the fault machinery is inert when unused.

Fault-free figure exports stay byte-for-byte reproducible run over run.
Dispatch streams *with* injectors in the event loop are pinned by the
``fault/*`` rows of ``tests/sim/test_dispatch_goldens.py``.
"""

import filecmp

from repro.experiments import fig3_fig4, fig9
from repro.metrics.export import export_all
from repro.workloads.scenarios import ScenarioConfig

TEST_SCALE = ScenarioConfig(data_scale=1 / 16, time_scale=1 / 16)


class TestFigureCsvByteIdentity:
    """Fault-free figure CSVs are byte-identical run over run."""
    def test_fig3_fig4_csvs_stable(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            comparison = fig3_fig4.run(TEST_SCALE)
            written = export_all(
                comparison.results, tmp_path / run, prefix="fig3_fig4"
            )
            paths.append(sorted(written.values()))
        assert [p.name for p in paths[0]] == [p.name for p in paths[1]]
        for left, right in zip(*paths):
            assert filecmp.cmp(left, right, shallow=False), left.name

    def test_fig9_report_stable(self):
        runs = [
            fig9.report(fig9.run(TEST_SCALE, intervals_s=(0.1, 0.5)))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
