"""Binned per-job throughput timelines.

Mirrors the paper's measurement method: "observation collected at every
100 ms" (Fig. 3).  Bytes are credited to the bin containing the RPC's
*completion* time — that is when the OST actually moved the data.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - numpy loads where series are built
    import numpy as np

from repro.lustre.rpc import Rpc

__all__ = ["Timeline"]

MIB = 1 << 20


class Timeline:
    """Accumulates per-job served bytes into fixed-width time bins.

    Parameters
    ----------
    bin_s:
        Bin width in seconds (paper: 0.1).
    """

    def __init__(self, bin_s: float = 0.1) -> None:
        if not 0 < bin_s < math.inf:  # also rejects NaN
            raise ValueError(f"bin_s must be positive and finite, got {bin_s}")
        self.bin_s = float(bin_s)
        self._bins: Dict[str, Dict[int, float]] = {}
        self._total_bytes: Dict[str, float] = {}
        self._last_time = 0.0

    # -- recording ---------------------------------------------------------
    def record(self, job_id: str, time: float, nbytes: float) -> None:
        """Credit ``nbytes`` served for ``job_id`` at ``time``."""
        if not 0 <= nbytes < math.inf:  # also rejects NaN
            raise ValueError(f"nbytes must be >= 0 and finite, got {nbytes}")
        index = int(time / self.bin_s)
        self._bins.setdefault(job_id, {})
        self._bins[job_id][index] = self._bins[job_id].get(index, 0.0) + nbytes
        self._total_bytes[job_id] = self._total_bytes.get(job_id, 0.0) + nbytes
        self._last_time = max(self._last_time, time)

    def record_rpc(self, rpc: Rpc) -> None:
        """Convenience hook for ``Oss.on_complete``."""
        self.record(rpc.job_id, rpc.completed, rpc.size_bytes)

    # -- observation --------------------------------------------------------
    @property
    def jobs(self) -> List[str]:
        return sorted(self._bins)

    @property
    def horizon_s(self) -> float:
        """Latest recorded completion time."""
        return self._last_time

    def total_bytes(self, job_id: Optional[str] = None) -> float:
        if job_id is None:
            return sum(self._total_bytes.values())
        return self._total_bytes.get(job_id, 0.0)

    def series(
        self, job_id: str, until: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bin_start_times, throughput_MiB_per_s)`` for one job.

        The series is dense (zero-filled) from t=0 to ``until`` (default:
        the last recorded completion), matching how the paper plots idle
        phases as zero throughput.
        """
        import numpy as np

        horizon = self._last_time if until is None else until
        n = max(1, int(np.ceil(horizon / self.bin_s)))
        times = np.arange(n) * self.bin_s
        values = np.zeros(n)
        for index, nbytes in self._bins.get(job_id, {}).items():
            if index < n:
                values[index] = nbytes
        return times, values / (self.bin_s * MIB)

    def aggregate_series(
        self, until: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, MiB/s)`` summed over all jobs."""
        import numpy as np

        horizon = self._last_time if until is None else until
        n = max(1, int(np.ceil(horizon / self.bin_s)))
        times = np.arange(n) * self.bin_s
        values = np.zeros(n)
        for job in self._bins:
            _, series = self.series(job, until=horizon)
            values[: len(series)] += series
        return times, values

    def mean_throughput(
        self, job_id: Optional[str] = None, duration: Optional[float] = None
    ) -> float:
        """Average MiB/s over ``duration`` (default: full horizon)."""
        span = self._last_time if duration is None else duration
        if span <= 0:
            return 0.0
        return self.total_bytes(job_id) / span / MIB
