"""Network Request Scheduler policies.

The NRS sits between RPC arrival at the OSS and service by I/O threads
(paper Fig. 1).  Two policies reproduce the paper's baselines and mechanism:

* :class:`FifoPolicy` — the **No BW** baseline (§IV-C): RPCs are served
  strictly first-come-first-serve with no rate control.
* :class:`TbfPolicy` — the classful token-bucket policy wrapping
  :class:`~repro.lustre.tbf.TbfScheduler`; both the **Static BW** baseline
  and AdapTBF drive it, differing only in who sets the rule rates and when.

Policies expose a small pull interface to the OSS thread pool: ``dequeue``
returns a ready RPC or ``None``; ``next_wake`` says when to re-poll;
``poll`` fuses the two into one pass (the hot path — an idle OSS thread
would otherwise walk the scheduler's deadline heap twice per cycle);
``wait_arrival`` hands out a broadcast event so idle threads learn about new
work immediately.

The broadcast is one of the two wake triggers of the OSS idle pool (the
other is its token-deadline timer).  Every enqueue, rule start, rule stop
that re-files work and rate change swaps in a fresh broadcast and succeeds
the old one, so it dispatches one calendar hop later.  The OSS hangs a
single callback on each broadcast and wakes every thread parked on it from
there, in park order: threads with no deadline poll inline at the
broadcast, threads with one poll one hop after it, from a shared wake
event — the positions a per-thread race would have given them (see
:mod:`repro.lustre.oss`).  A poll that comes up empty must leave the
policy's answer unchanged, so that every thread polling the same state at
the same instant gets the same ``(None, wake)``; the OSS relies on this to
re-park later threads without polling them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.lustre.rpc import Rpc
from repro.lustre.tbf import TbfRule, TbfScheduler
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["NrsPolicy", "FifoPolicy", "TbfPolicy"]


class NrsPolicy(ABC):
    """Interface between the OSS thread pool and a request ordering policy."""

    __slots__ = ("env", "_arrival")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._arrival = Event(env)

    # -- arrival notification -------------------------------------------------
    def wait_arrival(self) -> Event:
        """Event that fires on the next RPC arrival (broadcast to waiters)."""
        return self._arrival

    def _signal_arrival(self) -> None:
        env = self.env
        current, self._arrival = self._arrival, Event(env)
        env.relay(current)

    # -- policy surface ----------------------------------------------------------
    @abstractmethod
    def enqueue(self, rpc: Rpc) -> None:
        """Accept an arriving RPC."""

    @abstractmethod
    def dequeue(self) -> Optional[Rpc]:
        """Return the next serviceable RPC, or None when nothing is ready."""

    @abstractmethod
    def next_wake(self) -> float:
        """Absolute time when a dequeue may next succeed (``inf`` = never)."""

    def poll(self) -> Tuple[Optional[Rpc], float]:
        """Fused ``(dequeue(), next_wake())`` in one pass.

        Returns ``(rpc, _)`` when an RPC is serviceable and ``(None, wake)``
        otherwise; the wake time is only meaningful in the second form.
        Policies with a shared scan (TBF's deadline heap) override this to
        avoid walking their structures twice per idle thread cycle.
        """
        rpc = self.dequeue()
        if rpc is not None:
            return rpc, self.env.now
        return None, self.next_wake()

    @property
    @abstractmethod
    def pending(self) -> int:
        """Number of queued RPCs."""


class FifoPolicy(NrsPolicy):
    """First-come-first-serve — the paper's *No BW* environment.

    RPCs are handed to I/O threads in arrival order with no throttling: a
    single aggressive job can monopolise the OST, which is precisely the
    failure mode the paper's introduction motivates.
    """

    __slots__ = ("_queue",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._queue: Deque[Rpc] = deque()

    def enqueue(self, rpc: Rpc) -> None:
        rpc.arrived = self.env.now
        self._queue.append(rpc)
        self._signal_arrival()

    def dequeue(self) -> Optional[Rpc]:
        return self._queue.popleft() if self._queue else None

    def next_wake(self) -> float:
        # FIFO is ready iff non-empty; emptiness only changes on arrival.
        return math.inf

    def poll(self) -> Tuple[Optional[Rpc], float]:
        queue = self._queue
        if queue:
            return queue.popleft(), self.env.now
        return None, math.inf

    @property
    def pending(self) -> int:
        return len(self._queue)


class TbfPolicy(NrsPolicy):
    """Token Bucket Filter policy with runtime rule management.

    A thin, environment-aware wrapper over :class:`TbfScheduler`; rule
    management methods mirror the Lustre ``nrs_tbf_rule`` interface the
    AdapTBF Rule Management Daemon drives (§III-D).
    """

    __slots__ = ("scheduler",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self.scheduler = TbfScheduler()

    # -- rule management --------------------------------------------------------
    def start_rule(self, rule: TbfRule) -> None:
        self.scheduler.start_rule(self.env.now, rule)
        # A new rule may unblock queued work for threads waiting on tokens.
        self._signal_arrival()

    def stop_rule(self, name: str) -> int:
        moved = self.scheduler.stop_rule(self.env.now, name)
        if moved:
            self._signal_arrival()  # fallback queue gained servable work
        return moved

    def change_rate(self, name: str, rate: float, rank: Optional[int] = None) -> None:
        self.scheduler.change_rate(self.env.now, name, rate, rank=rank)
        self._signal_arrival()  # deadlines may have moved earlier

    def rule_names(self):
        return self.scheduler.rule_names()

    def get_rule(self, name: str) -> TbfRule:
        return self.scheduler.get_rule(name)

    def has_rule_for_job(self, job_id: str) -> bool:
        return self.scheduler.has_rule_for_job(job_id)

    # -- policy surface ----------------------------------------------------------
    def enqueue(self, rpc: Rpc) -> None:
        rpc.arrived = self.env.now
        self.scheduler.enqueue(self.env.now, rpc)
        self._signal_arrival()

    def dequeue(self) -> Optional[Rpc]:
        return self.scheduler.dequeue(self.env.now)

    def next_wake(self) -> float:
        return self.scheduler.next_wake(self.env.now)

    def poll(self) -> Tuple[Optional[Rpc], float]:
        return self.scheduler.poll(self.env.now)

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def pending_for_job(self, job_id: str) -> int:
        """Queued RPCs of one job (rule queue + fallback) — the backlog the
        controller folds into its demand signal."""
        return self.scheduler.pending_for_job(job_id)
