"""Experiment driver: execute one materialized scenario, collect metrics.

:func:`execute` is the single execution path of the pipeline: given a built
:class:`~repro.cluster.builder.ClusterTopology` it attaches a
:class:`~repro.metrics.timeline.Timeline` to the OSS completion streams,
runs the simulation until the jobs finish (or the spec's duration cap), and
returns everything the paper's figures need — timelines, completion times,
OST utilization, and (for AdapTBF) the full allocation/record history.

Which of those are actually collected follows the spec's
:class:`~repro.scenarios.spec.RunSpec.metrics`; sweeps that only need
completion times can skip per-RPC timeline recording entirely.

:func:`repro.scenarios.run_scenario` chains :func:`~repro.cluster.builder.build`
and :func:`execute` for callers that need no handle on the built cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.builder import ClusterTopology
from repro.core.types import AllocationRound
from repro.metrics.summary import BandwidthSummary, summarize
from repro.metrics.timeline import Timeline
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ExperimentResult", "execute"]


@dataclass
class ExperimentResult:
    """Everything measured in one run, and the spec that produced it."""

    spec: ScenarioSpec
    mechanism: str
    duration_s: float
    timeline: Timeline
    summary: BandwidthSummary
    job_completion_s: Dict[str, float]
    #: Mean utilization across all OSTs (0.0 unless collected).
    ost_utilization: float
    clients_finished: bool
    #: AdapTBF allocation history of the *first* OST (empty for baselines).
    history: List[AllocationRound] = field(default_factory=list)
    #: Per-OST histories for multi-OST runs (``[history]`` for one OST).
    per_ost_histories: List[List[AllocationRound]] = field(default_factory=list)

    def record_series(self, job_id: str):
        """``[(time, record)]`` for Fig. 7 (AdapTBF runs only)."""
        return [(r.time, r.records.get(job_id, 0)) for r in self.history]

    def demand_series(self, job_id: str):
        """``[(time, demand)]`` for Fig. 7 (AdapTBF runs only)."""
        return [(r.time, r.demands.get(job_id, 0)) for r in self.history]


def execute(cluster: ClusterTopology) -> ExperimentResult:
    """Run a built cluster to completion per its spec; see
    :class:`ExperimentResult`.

    The spec's ``run.duration_s`` caps simulated time: without a cap the
    run ends when every client process finishes (the §IV-D style); with one,
    whatever finished by the deadline is measured (the §IV-E/F style, where
    continuous jobs would otherwise dominate wall time).
    """
    env = cluster.env
    spec = cluster.spec
    timeline = Timeline(bin_s=spec.bin_s)

    completion: Dict[str, float] = {}
    outstanding = {
        job.job_id: sum(1 for _ in job.processes) for job in spec.jobs
    }

    if spec.run.wants("timeline"):

        def on_complete(rpc):
            timeline.record_rpc(rpc)

        for oss in cluster.osses:
            oss.on_complete(on_complete)

    # Track per-job completion: a job completes when all its processes do.
    for client in cluster.clients:
        def mark_done(event, job_id=client.io.job_id):
            outstanding[job_id] -= 1
            if outstanding[job_id] == 0:
                completion[job_id] = env.now

        client.process.add_callback(mark_done)

    done = cluster.all_clients_done()
    duration_cap = spec.run.duration_s
    if duration_cap is None:
        env.run(until=done)
        duration = env.now
        finished = True
    else:
        env.run(until=duration_cap)
        duration = duration_cap
        finished = done.processed

    summary = summarize(
        mechanism=spec.policy.mechanism,
        timeline=timeline,
        duration_s=duration,
        jobs=spec.job_ids,
        job_completion_s=completion,
    )
    if spec.run.wants("history"):
        # Uniform across mechanisms: handles that retain allocation rounds
        # (the AdapTBF family) contribute one history per OST.
        histories = [
            list(handle.history)
            for handle in cluster.handles
            if handle.history is not None
        ]
    else:
        histories = []
    utilization = (
        cluster.mean_utilization(0.0, duration)
        if spec.run.wants("utilization")
        else 0.0
    )
    return ExperimentResult(
        spec=spec,
        mechanism=spec.policy.mechanism,
        duration_s=duration,
        timeline=timeline,
        summary=summary,
        job_completion_s=dict(completion),
        ost_utilization=utilization,
        clients_finished=finished,
        history=histories[0] if histories else [],
        per_ost_histories=histories,
    )

