"""Shared plumbing for the per-figure experiment modules.

Every figure adapter runs through the declarative pipeline: it builds its
registered scenario with ``REGISTRY.build(name, **scale)`` — ``scale``
being :func:`bench_scale`, :func:`full_scale` or any mapping of that
scenario's parameters — and executes it once per mechanism via
:func:`repro.scenarios.runner.run_mechanisms`, collecting the results in a
:class:`MechanismComparison`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.experiment import ExperimentResult
from repro.metrics.summary import BandwidthSummary, gains_versus
from repro.metrics.tables import format_gains, format_series, format_table
from repro.scenarios.builtin import BENCH_SCALE
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "bench_scale",
    "full_scale",
    "MechanismComparison",
    "ShapeCheck",
    "format_shape_checks",
]


def full_scale() -> Dict[str, float]:
    """The paper's configuration: 1 GiB files, 20/50/80 s delays."""
    return {"data_scale": 1.0, "time_scale": 1.0}


def bench_scale() -> Dict[str, float]:
    """Reduced configuration for benches/tests (set ``REPRO_FULL=1`` to
    run the paper-size configuration instead).

    Scaling data and time by the same 1/10 keeps every burst's size
    relative to its period — and hence the demand-to-capacity regime —
    unchanged, while a full three-mechanism comparison runs in a few
    wall-clock seconds.
    """
    if os.environ.get("REPRO_FULL"):
        return full_scale()
    return {"data_scale": BENCH_SCALE, "time_scale": BENCH_SCALE}


@dataclass
class ShapeCheck:
    """One verified qualitative claim of a paper figure."""

    claim: str
    passed: bool
    detail: str


def format_shape_checks(checks: List[ShapeCheck]) -> List[str]:
    """The ``Shape checks:`` block that ends every figure report."""
    lines = ["Shape checks:"]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"  [{status}] {check.claim}")
        lines.append(f"         {check.detail}")
    return lines


@dataclass
class MechanismComparison:
    """Results of one scenario run under several mechanisms."""

    scenario: ScenarioSpec
    results: Dict[str, ExperimentResult]  # keyed by registered mechanism name

    @property
    def none(self) -> ExperimentResult:
        return self.results["none"]

    @property
    def static(self) -> ExperimentResult:
        return self.results["static"]

    @property
    def adaptbf(self) -> ExperimentResult:
        return self.results["adaptbf"]

    @property
    def job_ids(self) -> List[str]:
        return self.scenario.job_ids

    # -- reporting -----------------------------------------------------------
    def bandwidth_table(self, title: str) -> str:
        """Fig. 4(a)/6(a)/8(a): achieved bandwidth per job and overall."""
        headers = ["mechanism"] + self.job_ids + ["overall"]
        rows = []
        for mech, result in self.results.items():
            summary: BandwidthSummary = result.summary
            rows.append(
                [mech]
                + [summary.job(j) for j in self.job_ids]
                + [summary.aggregate_mib_s]
            )
        return format_table(headers, rows, title=title)

    def gains_table(self, versus: str, title: str) -> str:
        """Fig. 4(b)/6(b)/8(b): AdapTBF gain/loss vs a baseline, percent."""
        gains = gains_versus(self.adaptbf.summary, self.results[versus].summary)
        return format_gains(gains, title=title)

    def timeline_report(self, mechanism: str, resample_s: float = 1.0) -> str:
        """Fig. 3/5-style per-job throughput series for one mechanism."""
        result = self.results[mechanism]
        blocks = [f"--- {mechanism}: per-job throughput timeline ---"]
        horizon = result.duration_s
        for job in self.job_ids:
            times, values = result.timeline.series(job, until=horizon)
            blocks.append(
                format_series(f"{job}", times, values, resample_s=resample_s)
            )
        return "\n".join(blocks)

