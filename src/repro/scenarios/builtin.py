"""Built-in scenario registrations.

Every workload the repository knows — the paper's evaluation scenarios
(§IV-D/E/F), the example setups, and scenarios the old per-figure scripts
could not express (seeded burst storms, elastic job churn, heterogeneous
OST capacities) — registered in the default
:data:`~repro.scenarios.registry.REGISTRY`.

Factory defaults target the *reduced* bench scale so a CLI run finishes in
seconds; pass ``data_scale=1 time_scale=1`` (or the figure adapters'
``--full``) for the paper-size configuration.

The paper-style job mixes (``allocation``, ``redistribution``,
``recompensation``, ``burst-storm``, ``elastic-churn``) share two scale
knobs that rescale an experiment without changing its *shape*:
``data_scale`` multiplies every volume (``1.0`` is the paper's 1 GiB
files) and ``time_scale`` multiplies every delay, gap and duration.
Scaling both by the same factor preserves each burst's size *relative to*
its period, which is what the control behaviour depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import (
    MIB,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.workloads.spec import JobSpec, ProcessSpec
from repro.workloads.patterns import (
    BurstPattern,
    DelayedContinuousPattern,
    PoissonArrivalPattern,
    SequentialWritePattern,
    TraceReplayPattern,
)
from repro.workloads.registry import WORKLOADS
from repro.sim.rng import RngStreams
from repro.workloads.trace import EXAMPLE_TRACE, load_trace, records_by_job

__all__ = ["BENCH_SCALE", "REGISTRY"]

GIB = 1 << 30

#: The repository's reduced "bench" scale: 1/10 data, 1/10 time.  The
#: paper-mix factories, the built-in campaigns and the figure adapters'
#: ``bench_scale()`` share this one constant.
BENCH_SCALE = 0.1


@dataclass(frozen=True)
class _Scale:
    """Scale knobs of the paper-style job mixes (see the module docstring).

    ``capacity_mib_s`` sizes the continuous jobs (DESIGN.md §2): the
    paper's continuous jobs write 1 GiB files that outlast the experiment
    on its SSD OST; a simulated OST's speed is configurable, so they are
    sized from ``capacity × duration`` instead — same role (demand that
    outlives the observation window), substrate-appropriate volume.
    """

    data_scale: float
    time_scale: float
    capacity_mib_s: float = 1024.0
    heavy_procs: int = 16  # processes in the paper's "16 process" jobs
    window: int = 8  # RPCs in flight per process

    def __post_init__(self) -> None:
        for name in ("data_scale", "time_scale", "capacity_mib_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        if self.heavy_procs <= 0 or self.window <= 0:
            raise ValueError("heavy_procs and window must be positive")

    def bytes_(self, paper_bytes: float) -> int:
        """Scale a paper-configuration volume, ≥ 1 MiB to stay meaningful."""
        return max(MIB, int(paper_bytes * self.data_scale))

    def secs(self, paper_seconds: float) -> float:
        return paper_seconds * self.time_scale

    def continuous_bytes_per_proc(
        self, duration_s: float, procs: int, saturation: float = 1.25
    ) -> int:
        """Volume that keeps ``procs`` writers busy for ``duration_s``."""
        total = self.capacity_mib_s * MIB * duration_s * saturation
        return max(MIB, int(total / procs))

    def writers(self, nbytes: int, procs: int) -> Tuple[ProcessSpec, ...]:
        """``procs`` sequential writers of ``nbytes`` each."""
        return tuple(
            ProcessSpec(SequentialWritePattern(nbytes), window=self.window)
            for _ in range(procs)
        )


@REGISTRY.register(
    "quickstart",
    description="2 competing jobs (4-node science vs 1-node hog) on one OST",
)
def _quickstart(
    file_mib: float = 256.0,
    procs: int = 4,
    science_nodes: int = 4,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 0.0,
) -> ScenarioSpec:
    jobs = (
        JobSpec(
            job_id="science",
            nodes=science_nodes,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
        JobSpec(
            job_id="hog",
            nodes=1,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
    )
    return ScenarioSpec(
        name="quickstart",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{science_nodes}-node 'science' vs 1-node 'hog', "
            f"{procs} writers each"
        ),
    )


@REGISTRY.register(
    "allocation",
    description="§IV-D (Fig. 3-4): 4 identical jobs, priorities 10/10/30/50%",
)
def _allocation(
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    heavy_procs: int = 16,
    window: int = 8,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    overhead_s: float = 0.0,
    variant: str = "full",
) -> ScenarioSpec:
    """§IV-D: four identical I/O-intensive jobs, priorities 10/10/30/50 %.

    Each job runs ``heavy_procs`` processes writing a private (scaled) 1 GiB
    file sequentially.  Higher-priority jobs receive more bandwidth under
    priority-aware control and therefore finish earlier, producing the
    shrinking active set the experiment is about.
    """
    scale = _Scale(data_scale, time_scale, capacity_mib_s, heavy_procs, window)
    file_bytes = scale.bytes_(1 * GIB)
    jobs = [
        JobSpec(
            job_id=f"job{idx}",
            nodes=nodes,
            processes=scale.writers(file_bytes, heavy_procs),
        )
        for idx, nodes in enumerate((1, 1, 3, 5), start=1)
    ]
    return ScenarioSpec(
        name="allocation",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(
            mechanism=mechanism,
            interval_s=interval_s,
            overhead_s=overhead_s,
            variant=variant,
        ),
        description=(
            "4 identical sequential-write jobs, priorities 10/10/30/50%; "
            "runs until all complete"
        ),
    )


@REGISTRY.register(
    "redistribution",
    description="§IV-E (Fig. 5-6): 3 bursty 30% jobs vs a 10% continuous hog",
)
def _redistribution(
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    heavy_procs: int = 16,
    window: int = 8,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    overhead_s: float = 0.0,
    variant: str = "full",
) -> ScenarioSpec:
    """§IV-E: three high-priority bursty jobs vs one low-priority hog.

    Jobs 1–3 (30 % each): 2 processes issuing periodic short bursts
    (write-then-sleep) with per-job volumes/gaps chosen to interleave on
    the server.  Job 4 (10 %): ``heavy_procs`` processes with continuous
    demand from t=0 that outlives the observation window.
    """
    scale = _Scale(data_scale, time_scale, capacity_mib_s, heavy_procs, window)
    duration = scale.secs(60.0)
    burst_params = [  # (burst MiB, gap s, first-burst delay s)
        (96, 4.0, 0.0),
        (128, 5.0, 1.3),
        (64, 3.5, 2.1),
    ]
    jobs = []
    for idx, (mib, gap, delay) in enumerate(burst_params, start=1):
        gap_s = scale.secs(gap)
        count = max(2, int((duration - scale.secs(delay)) / gap_s))
        processes = tuple(
            ProcessSpec(
                BurstPattern(
                    burst_bytes=scale.bytes_(mib * MIB),
                    interval_s=gap_s,
                    count=count,
                    # The second process is offset half a period so the two
                    # streams interleave, as the paper's Filebench setup does.
                    start_delay_s=scale.secs(delay) + proc * gap_s / 2,
                ),
                window=window,
            )
            for proc in range(2)
        )
        jobs.append(JobSpec(job_id=f"job{idx}", nodes=3, processes=processes))
    hog_bytes = scale.continuous_bytes_per_proc(duration, heavy_procs)
    jobs.append(
        JobSpec(
            job_id="job4",
            nodes=1,
            processes=scale.writers(hog_bytes, heavy_procs),
        )
    )
    return ScenarioSpec(
        name="redistribution",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(
            mechanism=mechanism,
            interval_s=interval_s,
            overhead_s=overhead_s,
            variant=variant,
        ),
        run=RunSpec(duration_s=duration),
        description=(
            "jobs 1-3: high priority (30%), interleaved periodic bursts; "
            "job 4: low priority (10%), continuous 16-process stream"
        ),
    )


@REGISTRY.register(
    "recompensation",
    description="§IV-F (Fig. 7-8): equal priorities, 20/50/80s delayed streams",
)
def _recompensation(
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    heavy_procs: int = 16,
    window: int = 8,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    overhead_s: float = 0.0,
    variant: str = "full",
) -> ScenarioSpec:
    """§IV-F: equal priorities; delayed continuous streams trigger reclaim.

    All four jobs have 25 % priority.  Jobs 1–3 run one small-burst process
    (constant gap, volumes differing per job — job 3's bursts are the
    smallest) plus one continuous process delayed by 20/50/80 s.  Job 4 runs
    ``heavy_procs`` continuous processes from t=0, so it borrows heavily
    from the delayed jobs early on and must give tokens back later.
    """
    scale = _Scale(data_scale, time_scale, capacity_mib_s, heavy_procs, window)
    duration = scale.secs(120.0)
    params = [  # (burst MiB, gap s, continuous-start delay s)
        (48, 3.0, 20.0),
        (32, 4.0, 50.0),
        (24, 5.0, 80.0),  # job3: largest delay, smallest burst (per paper)
    ]
    jobs = []
    for idx, (mib, gap, delay) in enumerate(params, start=1):
        gap_s = scale.secs(gap)
        burst_proc = ProcessSpec(
            BurstPattern(
                burst_bytes=scale.bytes_(mib * MIB),
                interval_s=gap_s,
                count=max(2, int(duration / gap_s)),
            ),
            window=window,
        )
        # The delayed stream runs to the end of the window from its start.
        stream_duration = max(duration - scale.secs(delay), scale.secs(10.0))
        continuous_proc = ProcessSpec(
            DelayedContinuousPattern(
                delay_s=scale.secs(delay),
                total_bytes=scale.continuous_bytes_per_proc(
                    stream_duration, procs=4, saturation=1.0
                ),
            ),
            window=window,
        )
        jobs.append(
            JobSpec(
                job_id=f"job{idx}",
                nodes=1,
                processes=(burst_proc, continuous_proc),
            )
        )
    hog_bytes = scale.continuous_bytes_per_proc(
        duration, heavy_procs, saturation=1.0
    )
    jobs.append(
        JobSpec(
            job_id="job4",
            nodes=1,
            processes=scale.writers(hog_bytes, heavy_procs),
        )
    )
    return ScenarioSpec(
        name="recompensation",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(
            mechanism=mechanism,
            interval_s=interval_s,
            overhead_s=overhead_s,
            variant=variant,
        ),
        run=RunSpec(duration_s=duration),
        description=(
            "4 equal-priority jobs; jobs 1-3 lend early (delayed continuous "
            "streams at 20/50/80s) while job 4 borrows from t=0"
        ),
    )


@REGISTRY.register(
    "multiost",
    description="decentralized control: files spread over several OSTs (§II-B)",
)
def _multiost(
    n_osts: int = 4,
    stripe_count: int = 0,
    capacity_mib_s: float = 256.0,
    file_mib: float = 512.0,
    procs: int = 8,
    science_nodes: int = 6,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 3.0,
) -> ScenarioSpec:
    """Files striped over several OSTs, one controller per OST.

    Parameters
    ----------
    stripe_count:
        OSTs each file stripes over; 0 (the default) picks
        ``min(2, n_osts)`` so the scenario stays valid when an
        ``n_osts`` sweep narrows the cluster to one OST.
    """
    stripe_count = int(stripe_count) or min(2, n_osts)
    jobs = (
        JobSpec(
            job_id="simulation",
            nodes=science_nodes,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
        JobSpec(
            job_id="hog",
            nodes=1,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
    )
    return ScenarioSpec(
        name="multiost",
        jobs=jobs,
        topology=TopologySpec(
            n_osts=n_osts,
            stripe_count=stripe_count,
            capacity_mib_s=capacity_mib_s,
        ),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{science_nodes}-node job striped over {n_osts} OSTs "
            f"(stripe_count={stripe_count}) vs a 1-node hog; one independent "
            "controller per OST"
        ),
    )


@REGISTRY.register(
    "burst-storm",
    description="NEW: seeded many-tenant storm of mixed-priority bursts",
)
def _burst_storm(
    n_jobs: int = 6,
    seed: int = 0,
    duration_s: float = 40.0,
    with_hog: bool = True,
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
) -> ScenarioSpec:
    """Mixed-priority burst storm: many jobs, randomized shapes (seeded).

    ``n_jobs`` bursty jobs with node counts (priorities), burst volumes,
    cadences, process counts and phase offsets all drawn from a named
    :class:`~repro.sim.rng.RngStreams` substream — the adversarial
    many-tenant regime none of the paper's fixed four-job scripts could
    express.  An optional low-priority continuous hog keeps the OST
    saturated between bursts so redistribution stays observable.  The same
    seed always yields the identical job mix.
    """
    scale = _Scale(data_scale, time_scale, capacity_mib_s)
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    rng = RngStreams(seed=seed).get_stdlib("scenario.burst-storm")
    duration = scale.secs(duration_s)
    jobs: List[JobSpec] = []
    for idx in range(1, n_jobs + 1):
        nodes = rng.randint(1, 8)
        n_procs = rng.randint(1, 3)
        processes = []
        for _ in range(n_procs):
            gap_s = scale.secs(rng.uniform(2.0, 6.0))
            delay_s = scale.secs(rng.uniform(0.0, 4.0))
            count = max(2, int((duration - delay_s) / gap_s))
            processes.append(
                ProcessSpec(
                    BurstPattern(
                        burst_bytes=scale.bytes_(
                            rng.choice((16, 32, 64, 96, 128)) * MIB
                        ),
                        interval_s=gap_s,
                        count=count,
                        start_delay_s=delay_s,
                    ),
                    window=scale.window,
                )
            )
        jobs.append(
            JobSpec(job_id=f"storm{idx}", nodes=nodes, processes=tuple(processes))
        )
    if with_hog:
        hog_bytes = scale.continuous_bytes_per_proc(duration, 4, saturation=1.0)
        jobs.append(
            JobSpec(job_id="hog", nodes=1, processes=scale.writers(hog_bytes, 4))
        )
    return ScenarioSpec(
        name="burst-storm",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration, seed=seed),
        description=(
            f"{n_jobs} mixed-priority bursty jobs with seeded-random shapes "
            f"(seed={seed})" + (" + continuous low-priority hog" if with_hog else "")
        ),
    )


@REGISTRY.register(
    "elastic-churn",
    description="NEW: waves of jobs arriving and departing (elastic tenancy)",
)
def _elastic_churn(
    waves: int = 3,
    jobs_per_wave: int = 2,
    wave_gap_s: float = 8.0,
    file_mib: float = 192.0,
    seed: int = 0,
    data_scale: float = BENCH_SCALE,
    time_scale: float = BENCH_SCALE,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
) -> ScenarioSpec:
    """Elastic job churn: whole jobs arrive in waves, finish, and leave.

    Wave ``w`` starts ``w * wave_gap_s`` (scaled) into the run; each of its
    jobs writes a fixed volume and departs, so the active set repeatedly
    grows and shrinks — continuous arrival *and* departure churn, where the
    paper's scripts only ever shrink (§IV-D) or hold steady (§IV-E/F).
    Node counts are drawn per job from a named
    :class:`~repro.sim.rng.RngStreams` substream, so every wave mixes
    priorities.
    """
    scale = _Scale(data_scale, time_scale, capacity_mib_s)
    if waves <= 0 or jobs_per_wave <= 0:
        raise ValueError("waves and jobs_per_wave must be positive")
    if wave_gap_s <= 0:
        raise ValueError("wave_gap_s must be positive")
    rng = RngStreams(seed=seed).get_stdlib("scenario.elastic-churn")
    jobs: List[JobSpec] = []
    for wave in range(waves):
        arrival_s = scale.secs(wave * wave_gap_s)
        for j in range(jobs_per_wave):
            nodes = rng.choice((1, 2, 4))
            n_procs = rng.randint(2, 4)
            processes = tuple(
                ProcessSpec(
                    SequentialWritePattern(
                        scale.bytes_(file_mib * MIB), start_delay_s=arrival_s
                    ),
                    window=scale.window,
                )
                for _ in range(n_procs)
            )
            jobs.append(
                JobSpec(
                    job_id=f"wave{wave + 1}.job{j + 1}",
                    nodes=nodes,
                    processes=processes,
                )
            )
    return ScenarioSpec(
        name="elastic-churn",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=None, seed=seed),
        description=(
            f"{waves} waves x {jobs_per_wave} jobs arriving every "
            f"{wave_gap_s:g}s (scaled), each departing when its files are "
            f"written (seed={seed})"
        ),
    )


@REGISTRY.register(
    "hetero-osts",
    description="NEW: heterogeneous OST capacities (fast SSD + slow HDD tiers)",
)
def _hetero_osts(
    capacities: str = "1024,512,256,128",
    stripe_count: int = 1,
    file_mib: float = 96.0,
    procs: int = 4,
    science_nodes: int = 4,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 4.0,
) -> ScenarioSpec:
    """Mixed-speed storage tiers, one independent controller per tier.

    The pre-pipeline builder only knew a single scalar capacity, so a
    cluster mixing SSD- and HDD-class OSTs was inexpressible.  Files are
    placed round-robin across the tiers; each tier's controller enforces
    priorities against its *own* token rate.
    """
    caps = tuple(float(c) for c in str(capacities).split(",") if c.strip())
    jobs = (
        JobSpec(
            job_id="science",
            nodes=science_nodes,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
        JobSpec(
            job_id="hog",
            nodes=1,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(file_mib * MIB)))
                for _ in range(procs)
            ),
        ),
    )
    return ScenarioSpec(
        name="hetero-osts",
        jobs=jobs,
        topology=TopologySpec(
            n_osts=len(caps),
            ost_capacities_mib_s=caps,
            stripe_count=stripe_count,
        ),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{len(caps)} OSTs at {capacities} MiB/s; science vs hog placed "
            "round-robin across unequal tiers"
        ),
    )


@REGISTRY.register(
    "scale-500ost",
    description="NEW: scale stress — hundreds of OSTs, one controller each",
)
def _scale_500ost(
    n_osts: int = 500,
    capacity_mib_s: float = 64.0,
    stripe_count: int = 8,
    io_threads: int = 4,
    procs: int = 64,
    file_mib: float = 64.0,
    science_nodes: int = 4,
    window: int = 4,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 1.0,
) -> ScenarioSpec:
    """Decentralization at cluster scale: 500 independent per-OST controllers.

    The regime the control-theoretic storage-congestion comparisons evaluate
    at (hundreds of targets, thousands of concurrent streams) and the
    benchmark-regression harness's large grid cells exercise.  Two jobs
    stripe wide across every OST, so each OST runs the full NRS/TBF +
    controller stack concurrently.

    Parameters
    ----------
    n_osts:
        Number of (OSS, OST) pairs, each with an independent controller.
    capacity_mib_s:
        Per-OST bandwidth in MiB/s (small: aggregate stays realistic).
    stripe_count:
        OSTs per file; wide striping spreads every job over many OSTs.
    io_threads:
        OSS I/O threads per OST (reduced from 16: at 500 OSTs the thread
        pool itself would dominate the process count).
    procs:
        Processes per job.
    file_mib:
        Volume each process writes, in MiB.
    science_nodes:
        Node count (priority weight) of the science job; the hog has 1.
    window:
        RPCs in flight per process.
    mechanism:
        Bandwidth mechanism under test (registry name).
    interval_s:
        Controller observation period.
    duration:
        Simulated-duration cap in seconds.
    """
    jobs = (
        JobSpec(
            job_id="science",
            nodes=science_nodes,
            processes=tuple(
                ProcessSpec(
                    SequentialWritePattern(int(file_mib * MIB)), window=window
                )
                for _ in range(procs)
            ),
        ),
        JobSpec(
            job_id="hog",
            nodes=1,
            processes=tuple(
                ProcessSpec(
                    SequentialWritePattern(int(file_mib * MIB)), window=window
                )
                for _ in range(procs)
            ),
        ),
    )
    return ScenarioSpec(
        name="scale-500ost",
        jobs=jobs,
        topology=TopologySpec(
            n_osts=n_osts,
            capacity_mib_s=capacity_mib_s,
            stripe_count=stripe_count,
            io_threads=io_threads,
        ),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{n_osts} OSTs × {capacity_mib_s:g} MiB/s, "
            f"{2 * procs} clients striped {stripe_count}-wide, "
            "one controller per OST"
        ),
    )


@REGISTRY.register(
    "client-swarm",
    description="NEW: scale stress — thousands of client processes on few OSTs",
)
def _client_swarm(
    n_clients: int = 1000,
    n_jobs: int = 8,
    n_osts: int = 4,
    stripe_count: int = 1,
    op_mib: float = 4.0,
    window: int = 4,
    capacity_mib_s: float = 1024.0,
    io_threads: int = 16,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 2.0,
) -> ScenarioSpec:
    """Client-count stress: a swarm of processes contending for few OSTs.

    The inverse of ``scale-500ost`` — the event heap carries thousands of
    concurrent client windows while a handful of controllers arbitrate.
    Job node counts cycle 1/2/4/8, so the swarm still has a priority
    hierarchy for the mechanism to enforce.

    Parameters
    ----------
    n_clients:
        Total client processes, split as evenly as possible over the jobs.
    n_jobs:
        Number of jobs (TBF rules) the swarm is partitioned into.
    n_osts:
        Number of (OSS, OST) pairs.
    stripe_count:
        OSTs per file.
    op_mib:
        Volume each process writes, in MiB.
    window:
        RPCs in flight per process.
    capacity_mib_s:
        Per-OST bandwidth in MiB/s.
    io_threads:
        OSS I/O threads per OST.
    mechanism:
        Bandwidth mechanism under test (registry name).
    interval_s:
        Controller observation period.
    duration:
        Simulated-duration cap in seconds.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    n_jobs = min(n_jobs, n_clients)
    base, extra = divmod(n_clients, n_jobs)
    jobs = []
    for index in range(n_jobs):
        procs = base + (1 if index < extra else 0)
        jobs.append(
            JobSpec(
                job_id=f"swarm{index + 1}",
                nodes=2 ** (index % 4),  # 1/2/4/8-node priority tiers
                processes=tuple(
                    ProcessSpec(
                        SequentialWritePattern(int(op_mib * MIB)), window=window
                    )
                    for _ in range(procs)
                ),
            )
        )
    return ScenarioSpec(
        name="client-swarm",
        jobs=tuple(jobs),
        topology=TopologySpec(
            n_osts=n_osts,
            capacity_mib_s=capacity_mib_s,
            stripe_count=stripe_count,
            io_threads=io_threads,
        ),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{n_clients} client processes in {n_jobs} jobs vs "
            f"{n_osts} OST(s) at {capacity_mib_s:g} MiB/s"
        ),
    )


@REGISTRY.register(
    "trace-replay",
    description="NEW: replay a recorded I/O trace, one job per trace job",
)
def _trace_replay(
    trace: str = "",
    nodes: str = "",
    time_scale: float = 1.0,
    data_scale: float = 1.0,
    window: int = 8,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
    duration: float = 0.0,
) -> ScenarioSpec:
    """Trace-driven evaluation: the job mix comes from a recorded trace.

    The trace's distinct ``job`` values become :class:`JobSpec` entries
    (one replay process each, requests issued at their recorded offsets),
    so real request streams — not synthetic shapes — exercise the
    mechanism under test.

    Parameters
    ----------
    trace:
        Path to a ``.csv``/``.jsonl`` trace (see
        :mod:`repro.workloads.trace`); empty replays the bundled example.
    nodes:
        Comma-separated node counts assigned to the trace's jobs in
        sorted-name order (cycled if shorter); empty gives every job one
        node (equal priorities).
    time_scale:
        Multiplier on request offsets (compress/stretch the trace).
    data_scale:
        Multiplier on request volumes.
    window:
        RPCs in flight per replay process.
    capacity_mib_s:
        Per-OST bandwidth in MiB/s.
    mechanism:
        Bandwidth mechanism under test (registry name).
    interval_s:
        Controller observation period.
    duration:
        Simulated-duration cap in seconds; 0 runs to trace completion.
    """
    records = load_trace(trace or EXAMPLE_TRACE)
    grouped = records_by_job(records)
    counts = tuple(int(n) for n in str(nodes).split(",") if n.strip())
    jobs = tuple(
        JobSpec(
            job_id=job_name,
            nodes=counts[index % len(counts)] if counts else 1,
            processes=(
                ProcessSpec(
                    TraceReplayPattern(
                        records=grouped[job_name],
                        time_scale=time_scale,
                        data_scale=data_scale,
                    ),
                    window=window,
                ),
            ),
        )
        for index, job_name in enumerate(sorted(grouped))
    )
    return ScenarioSpec(
        name="trace-replay",
        jobs=jobs,
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration or None),
        description=(
            f"{len(jobs)} job(s) replayed from "
            f"{trace or EXAMPLE_TRACE.name} "
            f"({len(records)} records, time_scale={time_scale:g})"
        ),
    )


@REGISTRY.register(
    "poisson-storm",
    description="NEW: seeded storm of Poisson-arrival tenants (irregular demand)",
)
def _poisson_storm(
    n_jobs: int = 5,
    seed: int = 0,
    duration_s: float = 12.0,
    with_hog: bool = True,
    op_mib: float = 2.0,
    capacity_mib_s: float = 1024.0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
) -> ScenarioSpec:
    """Memoryless many-tenant contention: every job is a Poisson source.

    Node counts, arrival rates, process counts and read fractions are
    drawn from ``random.Random(seed)`` — the stochastic-arrival regime
    the SDQoSA/control-theory comparisons stress, where demand cannot be
    predicted from the last interval.  The arrival streams themselves
    are seeded per client, so the same seed replays bit-identically.

    Parameters
    ----------
    n_jobs:
        Number of Poisson tenants.
    seed:
        Root seed for both the job-mix draws and the arrival streams.
    duration_s:
        Simulated-duration cap; arrivals are sized to roughly fill it.
    with_hog:
        Add a low-priority continuous writer that keeps the OST
        saturated between arrival clusters.
    op_mib:
        Volume of each arrival's op, in MiB.
    capacity_mib_s:
        Per-OST bandwidth in MiB/s.
    mechanism:
        Bandwidth mechanism under test (registry name).
    interval_s:
        Controller observation period.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = RngStreams(seed=seed).get_stdlib("scenario.poisson-storm")
    jobs = []
    for index in range(1, n_jobs + 1):
        nodes = rng.randint(1, 8)
        n_procs = rng.randint(1, 2)
        rate = rng.uniform(4.0, 16.0)
        read_fraction = rng.choice((0.0, 0.25, 0.5))
        processes = tuple(
            ProcessSpec(
                PoissonArrivalPattern(
                    rate_per_s=rate,
                    op_bytes=int(op_mib * MIB),
                    count=max(2, int(rate * duration_s * 0.8)),
                    read_fraction=read_fraction,
                    seed=seed,
                )
            )
            for _ in range(n_procs)
        )
        jobs.append(
            JobSpec(job_id=f"poisson{index}", nodes=nodes, processes=processes)
        )
    if with_hog:
        hog_bytes = max(
            MIB, int(capacity_mib_s * MIB * duration_s / 4)
        )
        jobs.append(
            JobSpec(
                job_id="hog",
                nodes=1,
                processes=tuple(
                    ProcessSpec(SequentialWritePattern(hog_bytes))
                    for _ in range(4)
                ),
            )
        )
    return ScenarioSpec(
        name="poisson-storm",
        jobs=tuple(jobs),
        topology=TopologySpec(capacity_mib_s=capacity_mib_s),
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=duration_s, seed=seed),
        description=(
            f"{n_jobs} Poisson tenants with seeded-random rates/priorities "
            f"(seed={seed})"
            + (" + continuous low-priority hog" if with_hog else "")
        ),
    )


@REGISTRY.register(
    "diurnal-mix",
    description="NEW: day/night load swings against a steady background writer",
)
def _diurnal_mix(
    day_rate_per_s: float = 16.0,
    night_rate_per_s: float = 2.0,
    phase_s: float = 3.0,
    days: int = 2,
    op_mib: float = 2.0,
    diurnal_procs: int = 3,
    diurnal_nodes: int = 4,
    hog_mib: float = 96.0,
    seed: int = 0,
    mechanism: str = "adaptbf",
    interval_s: float = 0.1,
) -> ScenarioSpec:
    """Slow demand swings: a diurnal tenant vs a steady low-priority hog.

    The diurnal job's demand drops by ``day_rate / night_rate`` every
    ``phase_s`` — lending opportunities on a timescale far above the
    controller interval, the regime where adaptive borrowing should beat
    static shares most visibly.

    Parameters
    ----------
    day_rate_per_s:
        Mean op arrival rate during day phases.
    night_rate_per_s:
        Mean op arrival rate during night phases.
    phase_s:
        Nominal length of each day and each night phase.
    days:
        Number of day+night cycles.
    op_mib:
        Volume of each diurnal op, in MiB.
    diurnal_procs:
        Processes in the diurnal job.
    diurnal_nodes:
        Node count (priority weight) of the diurnal job.
    hog_mib:
        Volume each of the hog's 4 processes writes, in MiB.
    seed:
        Root seed of the diurnal arrival streams.
    mechanism:
        Bandwidth mechanism under test (registry name).
    interval_s:
        Controller observation period.
    """
    pattern = WORKLOADS.build(
        "diurnal",
        day_rate_per_s=day_rate_per_s,
        night_rate_per_s=night_rate_per_s,
        phase_s=phase_s,
        days=days,
        op_mib=op_mib,
        seed=seed,
    )
    jobs = (
        JobSpec(
            job_id="diurnal",
            nodes=diurnal_nodes,
            processes=tuple(
                ProcessSpec(pattern) for _ in range(diurnal_procs)
            ),
        ),
        JobSpec(
            job_id="hog",
            nodes=1,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(int(hog_mib * MIB)))
                for _ in range(4)
            ),
        ),
    )
    return ScenarioSpec(
        name="diurnal-mix",
        jobs=jobs,
        policy=PolicySpec(mechanism=mechanism, interval_s=interval_s),
        run=RunSpec(duration_s=None, seed=seed),
        description=(
            f"{diurnal_nodes}-node diurnal tenant swinging "
            f"{day_rate_per_s:g}→{night_rate_per_s:g} ops/s every "
            f"{phase_s:g}s vs a 1-node steady hog"
        ),
    )
