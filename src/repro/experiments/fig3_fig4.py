"""Experiment E1 — §IV-D token allocation (paper Fig. 3 and Fig. 4).

Four identical sequential-write jobs with priorities 10/10/30/50 % run to
completion under each mechanism.  The paper's observations, which
:func:`check_shapes` verifies programmatically:

* AdapTBF allocates bandwidth proportionally to priority (Fig. 3c), unlike
  No BW (Fig. 3a);
* AdapTBF re-allocates as jobs finish, unlike Static BW (Fig. 3b);
* AdapTBF attains the highest overall throughput while favouring the
  high-priority jobs 3 and 4 (Fig. 4a);
* versus No BW, jobs 3/4 gain significantly while jobs 1/2 lose only
  mildly (Fig. 4b).

The workload is the registered ``allocation`` scenario; this module is the
thin plotting adapter running it under all three mechanisms through the
declarative pipeline (``python -m repro.experiments run fig3``).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.experiments.common import (
    MechanismComparison,
    ShapeCheck,
    bench_scale,
    format_shape_checks,
)
from repro.metrics.summary import gains_versus
from repro.scenarios import REGISTRY
from repro.scenarios.runner import run_mechanisms

__all__ = ["run", "report", "check_shapes"]


def run(scale: Optional[Mapping[str, Any]] = None) -> MechanismComparison:
    """Run the §IV-D experiment under all three mechanisms.

    ``scale`` overrides parameters of the registered ``allocation``
    scenario (default: :func:`~repro.experiments.common.bench_scale`).
    """
    if scale is None:
        scale = bench_scale()
    spec = REGISTRY.build("allocation", **scale)
    return MechanismComparison(spec, run_mechanisms(spec))


def check_shapes(cmp: MechanismComparison) -> List[ShapeCheck]:
    """Verify the paper's qualitative claims for Fig. 3/4."""
    checks: List[ShapeCheck] = []
    adap = cmp.adaptbf.summary

    # 1. Priority ordering of achieved bandwidth under AdapTBF.
    ordered = (
        adap.job("job4") > adap.job("job3") > max(adap.job("job1"), adap.job("job2"))
    )
    checks.append(
        ShapeCheck(
            claim="AdapTBF bandwidth ordered by priority (job4 > job3 > job1/2)",
            passed=bool(ordered),
            detail=f"{ {j: round(adap.job(j), 1) for j in cmp.job_ids} }",
        )
    )

    # 2. AdapTBF aggregate beats Static BW (work conservation).
    checks.append(
        ShapeCheck(
            claim="AdapTBF aggregate > Static BW aggregate",
            passed=adap.aggregate_mib_s > cmp.static.summary.aggregate_mib_s,
            detail=(
                f"adaptbf={adap.aggregate_mib_s:.1f} "
                f"static={cmp.static.summary.aggregate_mib_s:.1f} MiB/s"
            ),
        )
    )

    # 3. Under AdapTBF high-priority jobs finish earlier.
    completions = cmp.adaptbf.job_completion_s
    finish_order_ok = (
        completions.get("job4", float("inf"))
        <= completions.get("job3", float("inf"))
        <= max(
            completions.get("job1", float("inf")),
            completions.get("job2", float("inf")),
        )
    )
    checks.append(
        ShapeCheck(
            claim="higher-priority jobs complete earlier under AdapTBF",
            passed=bool(finish_order_ok),
            detail=f"{ {j: round(t, 2) for j, t in sorted(completions.items())} }",
        )
    )

    # 4. Gains vs No BW: job3/job4 gain, job1/job2 lose only mildly.
    gains = gains_versus(adap, cmp.none.summary)
    checks.append(
        ShapeCheck(
            claim="jobs 3-4 gain vs No BW; jobs 1-2 lose less than they gain",
            passed=(
                gains["job4"] > 0
                and gains["job3"] > 0
                and gains["job1"] > -60.0
                and gains["job2"] > -60.0
            ),
            detail=f"{ {j: round(g, 1) for j, g in gains.items()} }",
        )
    )
    return checks


def report(cmp: MechanismComparison) -> str:
    """Text reproduction of Fig. 3 (series) and Fig. 4 (tables)."""
    parts = [
        "=" * 72,
        "E1 / Fig. 3-4: token allocation (4 jobs, priorities 10/10/30/50%)",
        "=" * 72,
        cmp.bandwidth_table("Fig 4(a): achieved bandwidth (MiB/s)"),
        "",
        cmp.gains_table(
            "none", "Fig 4(b): AdapTBF gain/loss vs No BW (%)"
        ),
        "",
    ]
    for mechanism in ("none", "static", "adaptbf"):
        parts.append(cmp.timeline_report(mechanism))
        parts.append("")
    parts += format_shape_checks(check_shapes(cmp))
    return "\n".join(parts)
