"""Experiment E4 — §IV-H token allocation frequency sweep (paper Fig. 9).

Reruns the §IV-F workload under AdapTBF with observation periods from
100 ms up to 2 s (scaled with the scenario's time scale so the ratio of
control period to burst cadence matches the paper's).  Expected shape:
aggregate I/O throughput is (weakly) decreasing in the allocation period —
finer control adapts to bursts faster — which is why the paper selects
100 ms.

The sweep itself runs through the campaign engine: ``run`` builds the
registered ``freq-sweep`` campaign (one cell per allocation period) and
executes it via :func:`repro.campaigns.run_campaign` — pass ``jobs=N`` to
fan the periods out across worker processes.  The campaign forwards the
``scale`` overrides to every cell's ``recompensation`` build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.common import ShapeCheck, bench_scale, format_shape_checks
from repro.metrics.tables import format_table
from repro.scenarios.builtin import BENCH_SCALE

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaigns import CampaignSpec

__all__ = ["campaign", "run", "report", "check_shapes", "PAPER_INTERVALS_S"]

#: The paper sweeps the allocation period starting at its 100 ms choice.
PAPER_INTERVALS_S = (0.1, 0.25, 0.5, 1.0, 2.0)


@dataclass
class FrequencySweep:
    """Aggregate throughput per allocation interval."""

    intervals_s: List[float]
    aggregates: Dict[float, float]

    def aggregate(self, interval_s: float) -> float:
        return self.aggregates[interval_s]


def campaign(
    scale: Optional[Mapping[str, Any]] = None,
    intervals_s: Sequence[float] = PAPER_INTERVALS_S,
) -> "CampaignSpec":
    """The ``freq-sweep`` campaign :func:`run` executes: one cell per
    allocation period, scaled with the scenario's time scale.

    ``scale`` overrides parameters of the registered ``recompensation``
    scenario (default: :func:`~repro.experiments.common.bench_scale`).
    """
    # Function-level import: repro.campaigns.builtin imports this module
    # for PAPER_INTERVALS_S, so the campaign engine must load lazily.
    from repro.campaigns import CAMPAIGNS

    if scale is None:
        scale = bench_scale()
    time_scale = scale.get("time_scale", BENCH_SCALE)
    return CAMPAIGNS.build(
        "freq-sweep",
        # str() round-trips floats exactly, so each cell's interval_s is
        # bit-identical to the scaled period.
        intervals=",".join(str(interval * time_scale) for interval in intervals_s),
        **scale,
    )


def run(
    scale: Optional[Mapping[str, Any]] = None,
    intervals_s: Sequence[float] = PAPER_INTERVALS_S,
    jobs: int = 1,
) -> FrequencySweep:
    """Sweep the AdapTBF observation period over the §IV-F workload."""
    from repro.campaigns import run_campaign

    sweep = campaign(scale, intervals_s)
    result = run_campaign(sweep, jobs=jobs)
    aggregates = {
        outcome.params["interval_s"]: outcome.row.aggregate_mib_s
        for outcome in result.outcomes
    }
    return FrequencySweep(
        intervals_s=list(sweep.axes[0].values), aggregates=aggregates
    )


def check_shapes(sweep: FrequencySweep) -> List[ShapeCheck]:
    aggregates = [sweep.aggregate(i) for i in sweep.intervals_s]
    finest, coarsest = aggregates[0], aggregates[-1]
    return [
        ShapeCheck(
            claim="finest allocation period yields the highest aggregate "
            "throughput",
            passed=finest >= max(aggregates) * 0.98,
            detail=f"aggregates={[round(a, 1) for a in aggregates]}",
        ),
        ShapeCheck(
            claim="throughput degrades from finest to coarsest period",
            passed=finest > coarsest,
            detail=(
                f"{sweep.intervals_s[0]*1e3:.0f}ms: {finest:.1f} vs "
                f"{sweep.intervals_s[-1]*1e3:.0f}ms: {coarsest:.1f} MiB/s"
            ),
        ),
    ]


def report(sweep: FrequencySweep) -> str:
    rows = [
        [f"{interval * 1e3:.0f} ms", sweep.aggregate(interval)]
        for interval in sweep.intervals_s
    ]
    parts = [
        "=" * 72,
        "E4 / Fig. 9: aggregate throughput vs token allocation frequency",
        "=" * 72,
        format_table(
            ["allocation period", "aggregate MiB/s"],
            rows,
            title="Fig 9: I/O throughput for varying allocation frequency",
        ),
        "",
    ]
    parts += format_shape_checks(check_shapes(sweep))
    return "\n".join(parts)
