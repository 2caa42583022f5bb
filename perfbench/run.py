"""The repository benchmark: one command, four workloads, two metric sets.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is one of ``quickstart-herd``, ``swarm-rw``, ``tax-campaign`` and
``quickstart-crash`` (see ``perfbench/README.md`` for why each exists).
With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` from
several fresh interpreters, then repeated untraced operations for
``--seconds``.  With ``--trace 1`` it reports the per-layer metrics of a
separate traced run instead.  Every simulated output is checked against
``reference.json`` (recorded seeds) or for determinism and conserved
volume (held-out seeds), and every exact work counter must repeat between
runs.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every check passes, 1 when an output or counter check
fails, and 2 when the checkout holds no simulator to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from host import host_speed, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("quickstart-herd", "swarm-rw", "tax-campaign", "quickstart-crash")
#: Fresh interpreters timed per invocation for ``setup_s`` (median taken),
#: half before and half after the measured run so one slow stretch of the
#: host does not set them all.
SETUP_REPEATS = 8
#: Wall budget of one invocation, under the 180 s every run must meet.
BUDGET_S = 175.0

#: End-to-end metrics (``--trace 0``): name → unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sim_s_per_wall_s": "sim-s/ref-s",
    "cells_per_s": "cells/ref-s",
    "peak_rss_mib": "MiB",
    "sim_aggregate_mib_s": "MiB/s",
    "sim_fairness": "jain",
}

#: Per-layer metrics (``--trace 1``): name → unit.
PER_LAYER: Dict[str, str] = {
    "setup.import_s": "s",
    "setup.numpy_loaded": "bool",
    "cluster.build_s": "s",
    "sim.events_scheduled": "count",
    "sim.events_dispatched": "count",
    "sim.events_per_rpc": "events/rpc",
    "sim.dispatched_per_scheduled": "ratio",
    "sim.self_frac": "frac",
    "lustre.rpcs_served": "count",
    "lustre.polls_per_rpc": "polls/rpc",
    "lustre.token_served_frac": "frac",
    "lustre.rpcs_dropped": "count",
    "lustre.rpcs_retried": "count",
    "lustre.self_frac": "frac",
    "lustre.oss.self_frac": "frac",
    "lustre.tbf.self_frac": "frac",
    "lustre.ost.self_frac": "frac",
    "lustre.client.self_frac": "frac",
    "lustre.network.self_frac": "frac",
    "lustre.jobstats.self_frac": "frac",
    "lustre.rpc.self_frac": "frac",
    "core.rounds_run": "count",
    "core.rate_changes": "count",
    "core.rules_created": "count",
    "core.self_frac": "frac",
    "core.self_us_per_round": "us",
    "faults.self_frac": "frac",
    "metrics.self_frac": "frac",
    "cluster.self_frac": "frac",
    "scenarios.self_frac": "frac",
    "workloads.self_frac": "frac",
    "campaigns.self_frac": "frac",
    "campaigns.pool_start_s": "s",
    "campaigns.cell_s_p50": "s",
    "campaigns.cell_s_p75": "s",
    "campaigns.parallel_eff": "frac",
    "campaigns.commit_s": "s",
    "campaigns.commits": "count",
    "campaigns.artifacts_s": "s",
    "builtins.self_frac": "frac",
    "other.self_frac": "frac",
    "trace.overhead_frac": "frac",
    "host.calibration_ops_per_s": "1/s",
}

#: Output fields that do not depend on the seed: a held-out seed must
#: reproduce them exactly (same volume of work served).
SEED_INVARIANT = ("per_job_bytes", "rpcs_served", "clients_finished", "cells")


class BenchError(RuntimeError):
    """A step of the benchmark could not run; no result is printed."""


def _layout_problem() -> Optional[str]:
    for needed in (
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "benchmarks" / "engine_workloads.py",
        REFERENCE,
    ):
        if not needed.is_file():
            return (
                f"perfbench: {needed.relative_to(ROOT)} not found; "
                "run from a full checkout"
            )
    return None


class Children:
    """Start child steps (``child.py``) under one overall deadline."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.argv = [str(workload), str(seed), str(seconds)]
        self.deadline = time.monotonic() + BUDGET_S

    def _command(self, mode: str) -> List[str]:
        return [sys.executable, str(HERE / "child.py"), mode, *self.argv]

    def _wait(self, proc: subprocess.Popen, mode: str) -> str:
        """The step's standard output, once it has exited successfully."""
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} step ran past the {BUDGET_S:g} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} step failed (exit {proc.returncode})")
        return out

    def setup(self) -> Tuple[float, float, Dict[str, Any]]:
        """Wall seconds from starting a fresh interpreter to ready-to-run,
        the host speed around it, and the spans the child recorded."""
        before = host_speed()
        start = time.perf_counter()
        proc = subprocess.Popen(
            self._command("setup"), cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()  # the child prints it when ready
        ready = time.perf_counter() - start
        self._wait(proc, "setup")
        return ready, (before + host_speed()) / 2, json.loads(line)

    def run(self, mode: str) -> Dict[str, Any]:
        proc = subprocess.Popen(
            self._command(mode), cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        lines = self._wait(proc, mode).splitlines()
        if not lines:
            raise BenchError(f"{mode} step printed no result")
        return json.loads(lines[-1])


# -- checks ------------------------------------------------------------------


def _first_difference(got: Any, want: Any, path: str = "") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return _first_difference(got.get(key), want.get(key), f"{path}.{key}")
    return f"{path.lstrip('.') or 'value'}: got {got!r}, want {want!r}"


class Checker:
    """Output and counter checks of one invocation."""

    def __init__(self, workload: str, seed: int) -> None:
        reference = json.loads(REFERENCE.read_text())["workloads"][workload]
        self.expected = reference["seeds"].get(str(seed))
        self.invariant = reference["invariant"]
        self.mode = "reference" if self.expected is not None else "held-out seed"
        self.problems: List[str] = []

    def _same(self, got: Any, want: Any, what: str) -> bool:
        if got == want:
            return True
        self.problems.append(f"{what}: {_first_difference(got, want)}")
        return False

    def output_ok(self, outputs: Dict[str, Any], first: Dict[str, Any], label: str) -> bool:
        """Exact match with the reference; for a held-out seed, with the
        seed-invariant reference fields and with the first run."""
        if self.expected is not None:
            return self._same(outputs, self.expected, f"{label} differs from the reference")
        subset = {key: outputs.get(key) for key in self.invariant}
        return self._same(
            subset, self.invariant, f"{label} differs in a seed-invariant output"
        ) and self._same(outputs, first, f"{label} differs from the first run")

    def counters_ok(self, counters: List[Dict[str, int]], labels: List[str]) -> bool:
        """Every counter two runs both report must be equal."""
        ok = True
        for got, label in zip(counters[1:], labels[1:]):
            shared = sorted(set(got) & set(counters[0]))
            ok &= self._same(
                {key: got[key] for key in shared},
                {key: counters[0][key] for key in shared},
                f"counters of {label} differ from {labels[0]}",
            )
        return ok


def check_runs(
    checker: Checker, runs: List[Dict[str, Any]], labels: List[str]
) -> Tuple[int, int]:
    """Check every run's outputs: (failed runs, failed ops)."""
    failed_runs = failed_ops = 0
    for run, label in zip(runs, labels):
        if not checker.output_ok(run["outputs"], runs[0]["outputs"], label):
            failed_runs += 1
            failed_ops += run["cells"]
    return failed_runs, failed_ops


# -- metrics -----------------------------------------------------------------


def _simulated(outputs: Dict[str, Any]) -> Tuple[float, float]:
    """(aggregate MiB/s, node-weighted Jain fairness) of one run."""
    summary = outputs.get("summary", outputs)
    return summary["aggregate_mib_s"], summary["fairness"]


def end_to_end(
    setups: List[Tuple[float, float, Any]],
    samples: List[Dict[str, Any]],
    peak_rss_mib: float,
) -> Dict[str, float]:
    """End-to-end metrics; host times in reference seconds (see host.py)."""
    aggregate, fairness = _simulated(samples[0]["outputs"])
    ref_s = [reference_seconds(s["wall_s"], s["host_ops_per_s"]) for s in samples]
    return {
        "setup_s": statistics.median(
            reference_seconds(wall, speed) for wall, speed, _ in setups
        ),
        "sim_s_per_wall_s": statistics.median(
            s["sim_s"] / t for s, t in zip(samples, ref_s)
        ),
        "cells_per_s": statistics.median(
            s["cells"] / t for s, t in zip(samples, ref_s)
        ),
        "peak_rss_mib": peak_rss_mib,
        "sim_aggregate_mib_s": aggregate,
        "sim_fairness": fairness,
    }


def per_layer(
    setup_spans: List[Dict[str, Any]], traced: Dict[str, Any], host_ops_per_s: float
) -> Dict[str, float]:
    metrics = {name: 0 for name in PER_LAYER if name.startswith("campaigns.")}
    metrics.update(traced["layers"])
    metrics.update(traced["spans"])
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup_spans)
    metrics["setup.numpy_loaded"] = max(s["numpy_loaded"] for s in setup_spans)
    metrics["host.calibration_ops_per_s"] = host_ops_per_s
    return {name: metrics[name] for name in PER_LAYER}


def _format(value: float) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def _labels(workload: str, trace: bool, count: int) -> List[str]:
    if not trace:
        return [f"run {i + 1}" for i in range(count)]
    if workload == "tax-campaign":
        return ["jobs=2 run", "jobs=1 run", "traced jobs=1 run"]
    return ["untraced run", "traced run"]


def collect(children: Children, trace: bool):
    """Set-ups, half before and half after the measured or traced step.

    Returns the set-ups, the step's result and the host speeds sampled
    around the step."""
    setups = [children.setup() for _ in range(SETUP_REPEATS // 2)]
    before = host_speed()
    result = children.run("trace" if trace else "measure")
    after = host_speed()
    setups += [children.setup() for _ in range(SETUP_REPEATS - len(setups))]
    return setups, result, [before, after]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0, a reference seed)"
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measured wall budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _layout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2

    checker = Checker(args.workload, args.seed)
    try:
        setups, result, speeds = collect(
            Children(args.workload, args.seed, args.seconds), bool(args.trace)
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs = result["runs"] if args.trace else result["samples"]
    labels = _labels(args.workload, bool(args.trace), len(runs))
    speeds += [speed for _, speed, _ in setups]
    speeds += [run["host_ops_per_s"] for run in runs if "host_ops_per_s" in run]

    failed_runs, failed = check_runs(checker, runs, labels)
    counters = [run["counters"] for run in runs]
    if "cell_counters" in result:  # campaign cells rerun standalone
        counters.append(result["cell_counters"])
        labels = labels + ["standalone cells"]
    counters_ok = checker.counters_ok(counters, labels)

    if args.trace:
        spans = [spans for _, _, spans in setups]
        metrics = per_layer(spans, result, statistics.median(speeds))
        units = PER_LAYER
    else:
        metrics = end_to_end(setups, runs, result["peak_rss_mib"])
        units = END_TO_END

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"host calibration (ops/s, {len(speeds)} samples): median "
        f"{statistics.median(speeds):,.0f}, min {min(speeds):,.0f}, max {max(speeds):,.0f}"
    )
    print(
        f"output check ({checker.mode}): {len(runs) - failed_runs}/{len(runs)} runs pass;"
        f" counters {'repeat exactly' if counters_ok else 'DIFFER'}"
    )
    for name, value in sorted(runs[0]["counters"].items()):
        print(f"  counter {name} = {value}")
    for problem in checker.problems:
        print(f"  FAIL {problem}")
    if not args.trace:
        print("  host s @ calibration ops/s, per operation: " + ", ".join(
            f"{run['wall_s']:.3f}@{run['host_ops_per_s']:,.0f}" for run in runs))
    print("  host s @ calibration ops/s, per set-up: " + ", ".join(
        f"{wall:.3f}@{speed:,.0f}" for wall, speed, _ in setups))
    for name, unit in units.items():
        print(f"  {name:32s} {_format(metrics[name]):>14s} {unit}")

    correct = failed == 0 and counters_ok and not checker.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["cells"] for run in runs),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
