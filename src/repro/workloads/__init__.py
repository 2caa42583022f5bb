"""Synthetic and trace-driven workloads: the pluggable workload axis.

The paper drives every experiment with Filebench [36] jobs combining three
I/O shapes; this package keeps those and grows the vocabulary into a
registry-driven plugin axis mirroring scenarios, campaigns and mechanisms:

* :mod:`repro.workloads.patterns` — pattern objects whose ``program(io)``
  generator runs on a simulated client: sequential writers *and readers*,
  mixed read/write streams, periodic bursts, delayed continuous streams,
  Poisson arrivals, on/off phases, phased (diurnal) composites, and trace
  replay;
* :mod:`repro.workloads.trace` — the ``(t_offset_s, job, op, nbytes)``
  trace format, CSV/JSONL loaders with validation, and the bundled
  example trace;
* :mod:`repro.workloads.registry` — :data:`~repro.workloads.registry.WORKLOADS`,
  the named factory registry behind ``workload list|describe``,
  ``run --workload NAME --workload-param K=V``, and the reserved
  ``workload`` campaign axis;
* :mod:`repro.workloads.spec` — the job/process description consumed by
  the cluster builder.

The job *mixes* built from these patterns — the paper's §IV-D/E/F
evaluation scenarios and the post-paper ones — are registered scenarios in
:mod:`repro.scenarios.builtin`.
"""

from repro.workloads.patterns import (
    BurstPattern,
    DelayedContinuousPattern,
    MixedReadWritePattern,
    OnOffPattern,
    Pattern,
    PhasedPattern,
    PoissonArrivalPattern,
    SequentialReadPattern,
    SequentialWritePattern,
    TraceReplayPattern,
)
from repro.workloads.registry import WORKLOADS, WorkloadRegistry
from repro.workloads.spec import JobSpec, ProcessSpec
from repro.workloads.trace import (
    EXAMPLE_TRACE,
    TraceFormatError,
    TraceRecord,
    load_trace,
    records_by_job,
    validate_trace,
)

__all__ = [
    "BurstPattern",
    "DelayedContinuousPattern",
    "EXAMPLE_TRACE",
    "JobSpec",
    "MixedReadWritePattern",
    "OnOffPattern",
    "Pattern",
    "PhasedPattern",
    "PoissonArrivalPattern",
    "ProcessSpec",
    "SequentialReadPattern",
    "SequentialWritePattern",
    "TraceFormatError",
    "TraceRecord",
    "TraceReplayPattern",
    "WORKLOADS",
    "WorkloadRegistry",
    "load_trace",
    "records_by_job",
    "validate_trace",
]
