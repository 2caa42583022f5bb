"""Host speed, measured with the existing harness's calibration loop.

The machines this benchmark runs on change speed by tens of percent over
seconds to minutes (shared cores, frequency scaling), and the calibration
loop in ``benchmarks/engine_workloads.py`` moves with them.  The benchmark
therefore calibrates right before and right after every timed operation and
reports host times scaled to a reference host that runs the loop at
:data:`REFERENCE_OPS_PER_S`: a *reference second* is a host second times
``host speed / REFERENCE_OPS_PER_S``.  An operation that keeps several
worker processes busy is bracketed by as many concurrent calibrations, so
the speed of every core it runs on is sampled.
"""

from __future__ import annotations

import multiprocessing
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Calibration speed of the reference host, in calibration ops per second.
REFERENCE_OPS_PER_S = 1_000_000.0
#: Loop length of one calibration (about 0.1 s on a 1 M ops/s host).
CALIBRATION_OPS = 100_000


def host_speed() -> float:
    """Calibration ops per second right now (``engine_workloads.calibrate``)."""
    benchmarks = str(ROOT / "benchmarks")
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    import engine_workloads

    return engine_workloads.calibrate(CALIBRATION_OPS)


class HostSpeed:
    """Calibrate in ``processes`` fresh worker processes at once.

    The workers hold nothing but the calibration loop, so the reading does
    not depend on the memory or imports of the process under measurement.
    They talk over pipes, leaving no thread in the caller, which may fork.
    Call :meth:`close` (or use ``with``) when done.
    """

    def __init__(self, processes: int = 1) -> None:
        context = multiprocessing.get_context("spawn")
        self._workers = []
        for _ in range(processes):
            ours, theirs = context.Pipe()
            worker = context.Process(target=_serve_calibrations, args=(theirs,))
            worker.start()
            theirs.close()
            self._workers.append((worker, ours))

    def measure(self) -> float:
        """Mean calibration speed over the workers, in ops per second."""
        for _, conn in self._workers:
            conn.send(True)
        return statistics.mean(conn.recv() for _, conn in self._workers)

    def close(self) -> None:
        for worker, conn in self._workers:
            conn.send(False)
            conn.close()
            worker.join()
        self._workers = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve_calibrations(conn) -> None:
    """Worker loop: calibrate on every ``True`` received, stop on ``False``."""
    while conn.recv():
        conn.send(host_speed())


def reference_seconds(host_seconds: float, speed: float) -> float:
    """``host_seconds`` measured at ``speed``, on the reference host."""
    return host_seconds * speed / REFERENCE_OPS_PER_S
