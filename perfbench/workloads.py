"""The benchmark's four workloads, as run inside one fresh interpreter.

Every workload drives the simulator only through its public API:
``REGISTRY.build`` → ``build`` → ``execute`` for the three scenarios, and
``CAMPAIGNS.build`` → ``run_campaign`` → ``write_artifacts`` for the
campaign.  Each workload has three entry points, one per child mode of
:mod:`child`:

* ``setup`` — import, spec resolution and ``build(spec)`` (for the
  campaign: the campaign spec and ``open_store``), with a span around each;
* ``measure`` — repeated untraced operations for a fixed wall budget; one
  operation is one scenario run (``execute`` timed) or one whole campaign
  (``run_campaign`` through ``write_artifacts`` timed);
* ``trace`` — untraced runs with spans, then one run under cProfile whose
  self time :mod:`layers` attributes to the simulator's layers.

Every operation returns its simulated ``outputs`` (checked against
``reference.json`` by the parent) and its exact work ``counters`` (checked
for equality between runs).  Nothing here imports ``repro`` at module
level, so the ``setup`` import span covers the whole package import.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import itertools
import os
import pstats
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from host import HostSpeed
from layers import LayerMap, call_count, self_time_by_layer, shares

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Scratch space for campaign stores and artifacts, inside the checkout.
WORK_ROOT = ROOT / ".perfbench-tmp"

#: Campaign workers: the ``--jobs 2`` of the workload, capped at the host's
#: core count.
CAMPAIGN_JOBS = min(2, os.cpu_count() or 1)
#: A measured run makes at least this many operations, so counter
#: determinism is always checked between two runs.
MIN_OPS = 2


def _now() -> float:
    return time.perf_counter()


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` × the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _p50_p75(values: List[float]) -> Tuple[float, float]:
    _q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3


def _measure_loop(
    op: Callable[[], Dict[str, Any]], seconds: float, workers: int
) -> Dict[str, Any]:
    """Repeat ``op`` for ``seconds`` (at least :data:`MIN_OPS` times), each
    run between two host-speed calibrations on ``max(1, workers)`` cores."""
    samples: List[Dict[str, Any]] = []
    with HostSpeed(max(1, workers)) as speed:
        start = _now()
        while len(samples) < MIN_OPS or _now() - start < seconds:
            gc.collect()
            before = speed.measure()
            sample = op()
            sample["host_ops_per_s"] = (before + speed.measure()) / 2
            samples.append(sample)
        # Before the calibration pool exits: its workers are not the run's.
        rss = peak_rss_mib(workers)
    return {"samples": samples, "peak_rss_mib": rss}


class _Spans:
    """Named wall-clock spans recorded around the benchmark's own calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def run(self, name: str, call: Callable[[], Any]) -> Any:
        start = _now()
        value = call()
        self.seconds[name] = self.seconds.get(name, 0.0) + _now() - start
        return value


# -- scenario workloads -------------------------------------------------------


class ScenarioWorkload:
    """One registered scenario run to completion per operation."""

    workers = 0

    def __init__(
        self,
        scenario: str,
        params: Dict[str, Any],
        topology: Dict[str, Any],
        workload: Optional[Tuple[str, Dict[str, Any]]] = None,
        fault: Optional[Tuple[str, Dict[str, Any]]] = None,
    ) -> None:
        self.scenario = scenario
        self.params = params
        self.topology = topology
        self.workload = workload
        self.fault = fault

    @staticmethod
    def imports() -> SimpleNamespace:
        from repro.cluster.builder import build
        from repro.cluster.experiment import execute
        from repro.metrics.summary import jain_index
        from repro.scenarios import REGISTRY

        return SimpleNamespace(
            REGISTRY=REGISTRY, build=build, execute=execute, jain_index=jain_index
        )

    def spec(self, api: SimpleNamespace, seed: int):
        """The scenario spec; ``seed`` is the run seed seeded workloads and
        faults inherit."""
        spec = (
            api.REGISTRY.build(self.scenario, **self.params)
            .with_topology(**self.topology)
            .with_run(seed=seed)
        )
        if self.workload is not None:
            spec = spec.with_workload(*self.workload)
        if self.fault is not None:
            spec = spec.with_fault(*self.fault)
        return spec

    def setup(self, seed: int) -> Dict[str, Any]:
        spans = _Spans()
        api = spans.run("import_s", self.imports)
        spec = spans.run("spec_s", lambda: self.spec(api, seed))
        spans.run("build_s", lambda: api.build(spec))
        return dict(spans.seconds, numpy_loaded=int("numpy" in sys.modules))

    # -- one operation ----------------------------------------------------
    def _run(self, api, spec, spans: _Spans) -> Dict[str, Any]:
        cluster = spans.run("build_s", lambda: api.build(spec))
        result = spans.run("execute_s", lambda: api.execute(cluster))
        return {
            "sim_s": cluster.env.now,
            "cells": 1,
            "outputs": self.outputs(api, spec, cluster, result),
            "counters": self.counters(cluster),
        }

    @staticmethod
    def outputs(api, spec, cluster, result) -> Dict[str, Any]:
        """The simulated results the output check pins."""
        summary = result.summary
        weights = {job: float(nodes) for job, nodes in spec.nodes.items()}
        return {
            "per_job_bytes": {
                job: result.timeline.total_bytes(job) for job in spec.job_ids
            },
            "completion_s": dict(sorted(result.job_completion_s.items())),
            "rpcs_served": sum(oss.completed_rpcs for oss in cluster.osses),
            "clients_finished": result.clients_finished,
            "summary": {
                "duration_s": summary.duration_s,
                "aggregate_mib_s": summary.aggregate_mib_s,
                "per_job_mib_s": dict(summary.per_job_mib_s),
                "fairness": api.jain_index(summary, weights=weights),
            },
        }

    @staticmethod
    def counters(cluster) -> Dict[str, int]:
        """Exact work counters, read from public properties."""
        schedulers = [
            oss.policy.scheduler
            for oss in cluster.osses
            if hasattr(oss.policy, "scheduler")
        ]
        return {
            "sim.events_scheduled": cluster.env.scheduled,
            "sim.events_dispatched": cluster.env.dispatched,
            "lustre.rpcs_served": sum(o.completed_rpcs for o in cluster.osses),
            "lustre.rpcs_dropped": cluster.rpcs_dropped,
            "lustre.rpcs_retried": cluster.rpcs_retried,
            "lustre.served_with_token": sum(s.served_with_token for s in schedulers),
            "lustre.served_fallback": sum(s.served_fallback for s in schedulers),
            "core.rounds_run": sum(h.rounds_run for h in cluster.handles),
            "core.rate_changes": sum(h.rate_changes for h in cluster.handles),
            "core.rules_created": sum(h.rules_created for h in cluster.handles),
        }

    def _measured_run(self, api, spec) -> Dict[str, Any]:
        spans = _Spans()
        sample = self._run(api, spec, spans)
        sample["wall_s"] = spans.seconds["execute_s"]
        return sample

    def measure(self, seed: int, seconds: float) -> Dict[str, Any]:
        api = self.imports()
        spec = self.spec(api, seed)
        return _measure_loop(lambda: self._measured_run(api, spec), seconds, self.workers)

    def trace(self, seed: int, layers: LayerMap) -> Dict[str, Any]:
        spans = _Spans()
        api = self.imports()
        spec = self.spec(api, seed)
        gc.collect()
        plain = self._run(api, spec, spans)
        plain_s = spans.seconds["build_s"] + spans.seconds["execute_s"]
        gc.collect()
        profiler = cProfile.Profile()
        start = _now()
        profiler.enable()
        traced = self._run(api, spec, _Spans())
        profiler.disable()
        traced_s = _now() - start
        stats = pstats.Stats(profiler).stats
        counters = plain["counters"]
        return {
            "runs": [plain, traced],
            "layers": _layer_metrics(stats, layers, counters, plain_s, traced_s),
            "spans": {"cluster.build_s": spans.seconds["build_s"]},
            "counters": counters,
        }


# -- the campaign workload ----------------------------------------------------


def _timed_store(inner):
    """A :class:`ResultStore` that delegates to ``inner`` and times commits."""
    from repro.campaigns import ResultStore

    class TimedStore(ResultStore):
        kind = inner.kind

        def __init__(self) -> None:
            self.commit_s = 0.0
            self.commits = 0

        def begin(self, spec_hash, campaign):
            inner.begin(spec_hash, campaign)

        def campaign(self):
            return inner.campaign()

        @property
        def location(self):
            return inner.location

        def load(self):
            return inner.load()

        def commit(self, record):
            start = _now()
            inner.commit(record)
            self.commit_s += _now() - start
            self.commits += 1

        def acquire(self, index, worker, now, ttl):
            return inner.acquire(index, worker, now, ttl)

        def release(self, index):
            inner.release(index)

        def leases(self):
            return inner.leases()

        def close(self):
            inner.close()

    return TimedStore()


class CampaignWorkload:
    """One built-in campaign into a fresh JSONL store per operation."""

    workers = CAMPAIGN_JOBS

    def __init__(self, campaign: str) -> None:
        self.campaign = campaign

    @staticmethod
    def imports() -> SimpleNamespace:
        from repro.campaigns import (
            CAMPAIGNS,
            CELL_METRICS,
            open_store,
            run_campaign,
            write_artifacts,
        )
        from repro.cluster.builder import build
        from repro.cluster.experiment import execute

        return SimpleNamespace(
            CAMPAIGNS=CAMPAIGNS,
            CELL_METRICS=CELL_METRICS,
            open_store=open_store,
            run_campaign=run_campaign,
            write_artifacts=write_artifacts,
            build=build,
            execute=execute,
        )

    def spec(self, api: SimpleNamespace, seed: int):
        """The campaign spec at its defaults; ``seed`` derives every cell's
        seed."""
        return api.CAMPAIGNS.build(self.campaign, seed=seed)

    def setup(self, seed: int) -> Dict[str, Any]:
        spans = _Spans()
        api = spans.run("import_s", self.imports)
        spans.run("spec_s", lambda: self.spec(api, seed))
        with tempfile.TemporaryDirectory(dir=_work_root()) as work:
            store = spans.run("build_s", lambda: api.open_store(Path(work) / "store"))
            store.close()
        return dict(spans.seconds, numpy_loaded=int("numpy" in sys.modules))

    # -- one operation ----------------------------------------------------
    def _run(
        self,
        api,
        campaign,
        jobs: int,
        store=None,
        progress=None,
    ) -> Dict[str, Any]:
        """``run_campaign`` + ``write_artifacts`` into a scratch directory."""
        with tempfile.TemporaryDirectory(dir=_work_root()) as work:
            start = _now()
            result = api.run_campaign(
                campaign, jobs=jobs, store=store, progress=progress
            )
            ran = _now()
            paths = api.write_artifacts(result, Path(work) / "artifacts")
            end = _now()
            digest = hashlib.sha256(paths["rows"].read_bytes()).hexdigest()
        rows = result.rows
        return {
            "wall_s": end - start,
            "run_s": ran - start,
            "artifacts_s": end - ran,
            "sim_s": sum(row.duration_s for row in rows),
            "cells": len(rows),
            "cell_walls": [outcome.wall_s for outcome in result.outcomes],
            "outputs": {
                "rows_sha256": digest,
                "cells": len(rows),
                "aggregate_mib_s": sum(r.aggregate_mib_s for r in rows) / len(rows),
                "fairness": sum(r.fairness for r in rows) / len(rows),
            },
            "counters": {
                "lustre.rpcs_served": sum(r.rpcs_completed for r in rows),
                "lustre.rpcs_dropped": sum(r.rpcs_dropped for r in rows),
                "lustre.rpcs_retried": sum(r.rpcs_retried for r in rows),
                "core.rounds_run": sum(r.rounds_run for r in rows),
                "core.rate_changes": sum(r.rate_changes for r in rows),
                "core.rules_created": sum(r.rules_created for r in rows),
            },
        }

    def _run_into_store(self, api, campaign, store_dir: Path, progress=None):
        store = _timed_store(api.open_store(store_dir))
        try:
            sample = self._run(
                api, campaign, CAMPAIGN_JOBS, store=store, progress=progress
            )
        finally:
            store.close()
        sample["commit_s"] = store.commit_s
        sample["commits"] = store.commits
        return sample

    def measure(self, seed: int, seconds: float) -> Dict[str, Any]:
        api = self.imports()
        campaign = self.spec(api, seed)
        with tempfile.TemporaryDirectory(dir=_work_root()) as work:
            stores = (Path(work) / f"store{n}" for n in itertools.count())
            return _measure_loop(
                lambda: self._run_into_store(api, campaign, next(stores)),
                seconds,
                self.workers,
            )

    def _cell_counters(self, api, campaign) -> Tuple[float, Dict[str, int]]:
        """Build and execute every cell standalone, trimmed as campaign
        cells are: total ``build`` seconds and the kernel/TBF counters a
        campaign row does not carry."""
        build_s = 0.0
        totals: Dict[str, int] = {}
        for cell in campaign.cells():
            spec = (
                campaign.resolve(cell)
                .with_policy(keep_history=False)
                .with_run(metrics=api.CELL_METRICS)
            )
            start = _now()
            cluster = api.build(spec)
            build_s += _now() - start
            api.execute(cluster)
            for name, value in ScenarioWorkload.counters(cluster).items():
                totals[name] = totals.get(name, 0) + value
        return build_s, totals

    def trace(self, seed: int, layers: LayerMap) -> Dict[str, Any]:
        api = self.imports()
        campaign = self.spec(api, seed)

        # 1. The measured configuration (jobs=2, JSONL store), with the
        #    progress hook stamping when each cell's outcome arrives.
        arrivals: List[Tuple[float, float]] = []

        def progress(outcome, _total) -> None:
            arrivals.append((_now(), outcome.wall_s))

        with tempfile.TemporaryDirectory(dir=_work_root()) as work:
            gc.collect()
            called = _now()
            pooled = self._run_into_store(
                api, campaign, Path(work) / "store", progress
            )
        # A cell started ``wall_s`` before its outcome arrived; the earliest
        # start is when the pool was ready to work.
        first_start = min(arrival - wall for arrival, wall in arrivals)
        p50, p75 = _p50_p75(pooled["cell_walls"])
        campaign_metrics = {
            "campaigns.pool_start_s": first_start - called,
            "campaigns.cell_s_p50": p50,
            "campaigns.cell_s_p75": p75,
            "campaigns.parallel_eff": sum(pooled["cell_walls"])
            / (CAMPAIGN_JOBS * pooled["run_s"]),
            "campaigns.commit_s": pooled["commit_s"],
            "campaigns.commits": pooled["commits"],
            "campaigns.artifacts_s": pooled["artifacts_s"],
        }

        # 2. Untraced in-process run: the baseline of the trace overhead.
        gc.collect()
        serial = self._run(api, campaign, 1)

        # 3. Every cell standalone: build time and kernel counters.
        gc.collect()
        build_s, cell_counters = self._cell_counters(api, campaign)

        # 4. The traced in-process run.
        gc.collect()
        profiler = cProfile.Profile()
        start = _now()
        profiler.enable()
        traced = self._run(api, campaign, 1)
        profiler.disable()
        traced_s = _now() - start
        stats = pstats.Stats(profiler).stats

        counters = dict(cell_counters, **serial["counters"])
        metrics = _layer_metrics(stats, layers, counters, serial["wall_s"], traced_s)
        metrics.update(campaign_metrics)
        return {
            "runs": [pooled, serial, traced],
            "layers": metrics,
            "spans": {"cluster.build_s": build_s},
            "counters": counters,
            "cell_counters": cell_counters,
        }


def _work_root() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return WORK_ROOT


def _layer_metrics(
    stats,
    layers: LayerMap,
    counters: Dict[str, int],
    plain_s: float,
    traced_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from one profile plus the exact counters.

    ``plain_s`` and ``traced_s`` are the untraced and traced wall times of
    the same work; self times are reported as shares of the profile, and
    ``core.self_us_per_round`` scales core's share by the untraced time.
    """
    share = shares(self_time_by_layer(stats, layers))
    rpcs = counters["lustre.rpcs_served"]
    scheduled = counters["sim.events_scheduled"]
    rounds = counters["core.rounds_run"]
    served = counters["lustre.served_with_token"] + counters["lustre.served_fallback"]
    metrics: Dict[str, float] = {
        "sim.events_scheduled": scheduled,
        "sim.events_dispatched": counters["sim.events_dispatched"],
        "sim.events_per_rpc": scheduled / rpcs,
        "sim.dispatched_per_scheduled": counters["sim.events_dispatched"] / scheduled,
        "lustre.rpcs_served": rpcs,
        "lustre.polls_per_rpc": call_count(stats, "lustre/nrs.py", "poll") / rpcs,
        "lustre.token_served_frac": (
            counters["lustre.served_with_token"] / served if served else 0.0
        ),
        "lustre.rpcs_dropped": counters["lustre.rpcs_dropped"],
        "lustre.rpcs_retried": counters["lustre.rpcs_retried"],
        "core.rounds_run": rounds,
        "core.rate_changes": counters["core.rate_changes"],
        "core.rules_created": counters["core.rules_created"],
        "core.self_us_per_round": (
            share["core"] * plain_s / rounds * 1e6 if rounds else 0.0
        ),
        "lustre.self_frac": sum(
            value for layer, value in share.items() if layer.startswith("lustre.")
        ),
        "trace.overhead_frac": max(0.0, 1.0 - plain_s / traced_s),
    }
    for layer, value in share.items():
        metrics[f"{layer}.self_frac"] = value
    return metrics


WORKLOADS: Dict[str, Any] = {
    "quickstart-herd": ScenarioWorkload(
        "quickstart",
        {"file_mib": 1024.0, "mechanism": "adaptbf"},
        {"n_osts": 1, "io_threads": 16},
    ),
    "swarm-rw": ScenarioWorkload(
        "client-swarm",
        {
            "n_osts": 100,
            "n_clients": 2000,
            "n_jobs": 8,
            "io_threads": 4,
            "op_mib": 16.0,
            "duration": 0.0,
        },
        {},
        workload=(
            "mixed-rw",
            {"total_mib": 16.0, "chunk_mib": 1.0, "read_fraction": 0.5},
        ),
    ),
    "tax-campaign": CampaignWorkload("decentralization-tax"),
    "quickstart-crash": ScenarioWorkload(
        "quickstart",
        {"file_mib": 1024.0, "mechanism": "adaptbf"},
        {"n_osts": 1, "io_threads": 16},
        fault=("ost-crash", {"start_s": 2.0, "duration_s": 1.0}),
    ),
}
