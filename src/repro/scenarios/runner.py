"""The pipeline's execution entry point: ``run_scenario(spec) → ExperimentResult``.

One call materializes a :class:`~repro.scenarios.spec.ScenarioSpec` through
the cluster builder and executes it; the returned
:class:`~repro.cluster.experiment.ExperimentResult` carries the spec that
produced it, so downstream consumers (reports, CSV export, sweeps) never
need out-of-band context.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.builder import build
from repro.cluster.experiment import ExperimentResult, execute
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PAPER_MECHANISMS", "run_scenario", "run_mechanisms"]

#: The paper's §IV-C comparison set, in presentation order.  Any name
#: registered in :data:`repro.core.mechanism.MECHANISMS` is runnable.
PAPER_MECHANISMS = ("none", "static", "adaptbf")


def run_scenario(spec: ScenarioSpec, algorithm_factory=None) -> ExperimentResult:
    """Build and execute ``spec``; the single pipeline entry point.

    ``algorithm_factory`` optionally overrides the AdapTBF algorithm
    construction (see :func:`~repro.cluster.builder.build`).
    """
    return execute(build(spec, algorithm_factory=algorithm_factory))


def run_mechanisms(
    spec: ScenarioSpec,
    mechanisms: Sequence[str] = PAPER_MECHANISMS,
    algorithm_factory=None,
) -> Dict[str, ExperimentResult]:
    """Run ``spec`` once per mechanism with otherwise equal hardware.

    ``mechanisms`` are registry names (default: the paper's §IV-C trio);
    results are keyed by the normalized name — the comparison every figure
    of the paper is built from, now open to any registered contender.
    """
    results: Dict[str, ExperimentResult] = {}
    for mechanism in mechanisms:
        result = run_scenario(
            spec.with_policy(mechanism=mechanism),
            algorithm_factory=algorithm_factory,
        )
        results[result.spec.policy.mechanism] = result
    return results
