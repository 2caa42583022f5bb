"""Object Storage Target: a processor-sharing bandwidth server.

Models the OST disk as a fluid-flow resource: ``capacity_bps`` bytes/second
split evenly across all in-flight transfers.  This is the standard fluid
approximation for a saturated storage device and preserves the property the
experiments depend on — aggregate service rate equals ``capacity_bps``
whenever any work is queued, regardless of concurrency.

The implementation is event-driven: transfer completions are pre-computed and
re-computed whenever the set of active transfers changes.  Each
re-computation lazily cancels the previous completion-check timer
(:meth:`~repro.sim.events.Event.cancel`), so superseded checks are skipped by
the engine instead of dispatching as no-ops.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Ost", "OstUnavailable"]

_EPS_BYTES = 1e-6


class OstUnavailable(Exception):
    """Raised into waiters of in-flight transfers when their OST crashes.

    Carries the OST name; the OSS I/O threads catch it and requeue the
    aborted RPC, so a crash never propagates past the server boundary.
    """


class Ost:
    """One Object Storage Target with finite disk bandwidth.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Identifier (e.g. ``"OST0000"``), used in stats and diagnostics.
    capacity_bps:
        Disk bandwidth in bytes/second, shared by concurrent transfers.

    Notes
    -----
    The maximum token rate ``T_i`` the paper assigns an OST (Table I) maps to
    ``capacity_bps / rpc_size``: with 1 MiB RPCs, a 1 GiB/s OST supports
    1024 tokens/s of sustained service.
    """

    __slots__ = (
        "env",
        "name",
        "capacity_bps",
        "_remaining",
        "_sizes",
        "_done_events",
        "_ids",
        "_last",
        "_check_timer",
        "_on_check_cb",
        "_bytes_served",
    )

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        if not 0 < capacity_bps < math.inf:  # also rejects NaN
            raise ValueError(
                f"capacity must be positive and finite, got {capacity_bps}"
            )
        self.env = env
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self._remaining: Dict[int, float] = {}  # transfer id -> bytes left
        self._sizes: Dict[int, float] = {}  # transfer id -> original bytes
        self._done_events: Dict[int, Event] = {}
        self._ids = itertools.count()
        self._last = env.now
        self._check_timer: Optional[Timeout] = None
        self._on_check_cb = self._on_check  # cache the bound method
        self._bytes_served = 0.0

    # -- public API ---------------------------------------------------------
    def transfer(self, nbytes: float) -> Event:
        """Begin a transfer of ``nbytes``; returns its completion event."""
        if not 0 < nbytes < math.inf:  # also rejects NaN
            raise ValueError(
                f"transfer size must be positive and finite, got {nbytes}"
            )
        self._advance(self.env.now)
        tid = next(self._ids)
        self._remaining[tid] = float(nbytes)
        self._sizes[tid] = float(nbytes)
        done = Event(self.env)
        self._done_events[tid] = done
        self._reschedule()
        return done

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the disk bandwidth at runtime.

        Models degraded media / RAID rebuild / contention from scrubbing:
        in-flight transfers finish at the new rate from this instant.  The
        AdapTBF controller does not observe capacity directly — it keeps
        allocating ``T_i`` tokens — so this is the failure-injection hook
        for testing behaviour when tokens outrun the disk.
        """
        if not 0 < capacity_bps < math.inf:  # also rejects NaN
            raise ValueError(
                f"capacity must be positive and finite, got {capacity_bps}"
            )
        self._advance(self.env.now)
        self.capacity_bps = float(capacity_bps)
        self._reschedule()

    def fail_inflight(self, exc: Optional[BaseException] = None) -> int:
        """Abort every in-flight transfer: fail its completion event.

        The crash path of the fault axis.  Partially-served bytes are
        discarded (they never reach ``bytes_served`` — the work is lost,
        as on a real device that drops its write-back cache), the pending
        completion-check timer is lazily cancelled, and each transfer's
        done event *fails* with ``exc`` in transfer-id order, so waiters
        observe the crash at deterministic heap positions.  Returns the
        number of transfers aborted.
        """
        if exc is None:
            exc = OstUnavailable(self.name)
        self._advance(self.env.now)
        aborted = list(self._done_events.values())
        self._remaining.clear()
        self._sizes.clear()
        self._done_events.clear()
        for done in aborted:
            done.fail(exc)
        self._reschedule()
        return len(aborted)

    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers."""
        return len(self._remaining)

    @property
    def bytes_served(self) -> float:
        """Total bytes completed so far (for utilization accounting)."""
        return self._bytes_served

    def utilization(self, since: float, until: Optional[float] = None) -> float:
        """Fraction of capacity used over ``[since, until]``.

        A convenience for experiment summaries; relies on
        :attr:`bytes_served` having been sampled at ``since`` by the caller.
        """
        until = self.env.now if until is None else until
        span = until - since
        if span <= 0:
            return 0.0
        return self._bytes_served / (self.capacity_bps * span)

    # -- fluid-flow mechanics ---------------------------------------------------
    def _advance(self, now: float) -> None:
        """Drain work proportionally over the elapsed interval."""
        elapsed = now - self._last
        self._last = now
        if elapsed <= 0 or not self._remaining:
            return
        share = self.capacity_bps * elapsed / len(self._remaining)
        for tid in self._remaining:
            self._remaining[tid] -= share

    def _reschedule(self) -> None:
        """Schedule a completion check for the next transfer to finish.

        The previous pending check (if any) is lazily cancelled: the engine
        skips it when its heap entry surfaces, so superseded checks cost
        nothing to dispatch.
        """
        stale = self._check_timer
        if stale is not None and stale.callbacks is not None:
            stale.cancel()
        if not self._remaining:
            self._check_timer = None
            return
        min_left = min(self._remaining.values())
        per_flow = self.capacity_bps / len(self._remaining)
        delay = max(0.0, min_left) / per_flow
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._on_check_cb)
        self._check_timer = timer

    def _on_check(self, _event: Event) -> None:
        env = self.env
        now = env.now
        self._advance(now)
        finished = [
            tid for tid, left in self._remaining.items() if left <= _EPS_BYTES
        ]
        # Floating-point guard: the scheduled check targets the minimum, so
        # at least one transfer must be complete.
        if not finished:
            nearest = min(self._remaining.values())
            assert nearest <= 1e-3, f"completion check fired early ({nearest} B left)"
            finished = [
                tid
                for tid, left in self._remaining.items()
                if math.isclose(left, nearest, abs_tol=1e-3)
            ]
        for tid in finished:
            self._remaining.pop(tid)
            self._bytes_served += self._sizes.pop(tid)
            env.relay(self._done_events.pop(tid), now)
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Ost {self.name} cap={self.capacity_bps:.0f}B/s "
            f"active={len(self._remaining)}>"
        )
