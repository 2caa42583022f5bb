"""Object Storage Server: I/O thread pool over an NRS policy.

The OSS owns the NRS policy, a :class:`~repro.lustre.jobstats.JobStatsTracker`
and a pool of I/O threads.  Each thread loops: pull the next serviceable RPC
from the policy; if none is ready, sleep until either the policy's next token
deadline or a new arrival; serve granted RPCs against the OST's shared
bandwidth.  This reproduces the work-conservation semantics the paper
analyses: under TBF, threads *can* sit idle while RPCs wait for tokens (the
non-work-conserving behaviour AdapTBF fixes), while the fallback queue keeps
unmatched jobs from starving.

Idle waits are the OSS's hot path, so idle threads share their wakeups.
The model's semantics are those of a herd: every idle thread races its own
deadline timer against the policy's arrival broadcast, every trigger wakes
every waiting thread, and each woken thread polls in turn.  The order of
those ``poll`` and ``ost.transfer`` calls fixes the OST transfer ids, hence
the completion order at equal times, hence which client resubmits first —
so it is part of the model's output.  The OSS reproduces exactly that order
with one calendar event per trigger instead of one per thread:

* A parked thread waits on a plain :class:`~repro.sim.events.Event` (its
  *group*) that never enters the calendar.  Each group holds one *token*
  on the current arrival broadcast (one callback per broadcast, holding
  its tokens in park order) and, for a finite deadline, on a *timer
  batch*.  A token joins the open batch only when its timer time equals
  the batch's and no event was scheduled since the batch's timer was
  armed — exactly when the per-thread timers would have held consecutive
  sequence numbers.  Otherwise it arms a new timer.  A thread that would
  register right behind the newest token, on the same broadcast and the
  same batch, joins that token's group instead of taking a token.
* When a broadcast or a batch timer dispatches, its pending tokens are
  marked woken.  A token without a deadline is drained inline, as a thread
  waiting on the broadcast alone would have been.  A token with one gets
  a deferred wake: a zero-delay :meth:`~repro.sim.engine.Environment.hop`
  in the slot where the first per-thread wakeup would have gone, whose
  token list every later deferred token joins while that hop is still the
  newest (:meth:`~repro.sim.engine.Environment.newest_hop`: nothing
  scheduled or relayed in between).  The hop drains its tokens inline, in
  park order.
* Draining resumes a group's threads one by one.  Once a poll comes up
  empty, every later thread of the same dispatch would poll the same state
  and park with the same deadline, so they are re-parked, without being
  resumed, under a fresh token (old tokens stay woken, so stale lists
  skip them).  Parked threads all wait at the same point of the same
  loop, so which one a group resumes next is unobservable; the sequence
  of polls is.  A batch timer whose tokens were all woken by broadcasts
  is cancelled.

``tests/sim/test_service_goldens.py`` pins the resulting per-RPC service
records, figure CSVs and campaign rows to the herd's; only the calendar
schedule (``tests/sim/test_dispatch_goldens.py``) differs.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.lustre.jobstats import JobStatsTracker
from repro.lustre.nrs import NrsPolicy
from repro.lustre.ost import Ost, OstUnavailable
from repro.lustre.rpc import Rpc
from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Oss"]

#: Default I/O thread count; Lustre OSSes typically run tens of ost_io
#: threads per CPT.  16 matches the paper's 16-core OSS node.
DEFAULT_IO_THREADS = 16

_INF = float("inf")


class _Token:
    """One registration of a parked group on a broadcast and a timer batch.

    A token is woken at most once: by its broadcast or by its batch timer,
    whichever dispatches first.  Re-parking a group registers a fresh
    token, so lists that still hold the old one see it as woken.
    """

    __slots__ = ("group", "batch", "woken")

    def __init__(self, group: Event) -> None:
        self.group = group
        self.batch: Optional[_TimerBatch] = None
        self.woken = False


class _TimerBatch:
    """Tokens sharing one deadline timer (one per run of consecutive parks)."""

    __slots__ = ("timer", "at", "eid", "tokens", "pending")

    def __init__(self, at: float) -> None:
        self.timer: Optional[Timeout] = None
        self.at = at
        self.eid = 0
        self.tokens: List[_Token] = []
        self.pending = 0


class Oss:
    """One Object Storage Server fronting a single OST.

    Parameters
    ----------
    env:
        Simulation environment.
    ost:
        Storage target providing bandwidth.
    policy:
        The NRS policy ordering RPCs (FIFO or TBF).
    io_threads:
        Number of concurrent service threads.
    rpc_overhead_s:
        Fixed per-RPC software overhead charged before the bulk transfer
        (request handling, bulk setup).  Zero by default.
    """

    __slots__ = (
        "env",
        "ost",
        "policy",
        "io_threads",
        "rpc_overhead_s",
        "jobstats",
        "_on_complete",
        "_completed_rpcs",
        "_offline",
        "_online",
        "_rpcs_dropped",
        "_rpcs_retried",
        "_arrival",
        "_arrival_tokens",
        "_timers",
        "_wake_tokens",
        "_parked",
        "_draining",
        "_on_timer_cb",
        "_on_wake_cb",
    )

    def __init__(
        self,
        env: "Environment",
        ost: Ost,
        policy: NrsPolicy,
        io_threads: int = DEFAULT_IO_THREADS,
        rpc_overhead_s: float = 0.0,
    ) -> None:
        if io_threads <= 0:
            raise ValueError(f"io_threads must be positive, got {io_threads}")
        if not rpc_overhead_s >= 0:  # also rejects NaN
            raise ValueError(f"rpc_overhead_s must be >= 0, got {rpc_overhead_s}")
        self.env = env
        self.ost = ost
        self.policy = policy
        self.io_threads = io_threads
        self.rpc_overhead_s = rpc_overhead_s
        self.jobstats = JobStatsTracker()
        self._on_complete: List[Callable[[Rpc], None]] = []
        self._completed_rpcs = 0
        self._offline = False
        self._online: Optional[Event] = None
        self._rpcs_dropped = 0
        self._rpcs_retried = 0
        # Idle-pool state: the broadcast we hold a callback on and its
        # tokens, the newest timer batch, the token list of the open
        # deferred wake hop, the deadline of the last park (None: no park
        # since it was cleared) and the group being drained.
        self._arrival: Optional[Event] = None
        self._arrival_tokens: List[_Token] = []
        self._timers: Optional[_TimerBatch] = None
        self._wake_tokens: Optional[List[_Token]] = None
        self._parked: Optional[float] = None
        self._draining: Optional[Event] = None
        self._on_timer_cb = self._on_timer
        self._on_wake_cb = self._on_wake
        for tid in range(io_threads):
            env.process(self._thread_loop(), name=f"{ost.name}.io{tid}")

    # -- ingress (called by the network) ----------------------------------------
    def receive(self, rpc: Rpc) -> None:
        """An RPC arrives from the network: account it and queue it."""
        self.jobstats.record_arrival(rpc)
        self.policy.enqueue(rpc)

    # -- observability ---------------------------------------------------------
    def on_complete(self, callback: Callable[[Rpc], None]) -> None:
        """Register a callback invoked for every completed RPC."""
        self._on_complete.append(callback)

    @property
    def completed_rpcs(self) -> int:
        return self._completed_rpcs

    @property
    def offline(self) -> bool:
        """True while the backing OST is crashed (fault axis)."""
        return self._offline

    @property
    def rpcs_dropped(self) -> int:
        """In-flight transfers aborted by crashes (served work lost)."""
        return self._rpcs_dropped

    @property
    def rpcs_retried(self) -> int:
        """RPCs requeued after a crash aborted or blocked their service."""
        return self._rpcs_retried

    # -- fault-axis surface ------------------------------------------------------
    def crash(self) -> int:
        """Take the backing OST dark: abort in-flight transfers, park threads.

        Every in-flight transfer's completion event fails with
        :class:`~repro.lustre.ost.OstUnavailable`; the I/O threads catch
        it, requeue the aborted RPC on the NRS policy (its service starts
        over after recovery — the partial work is lost) and then block on
        the recovery broadcast.  Returns the number of transfers aborted.
        Crashing an already-offline OSS raises.
        """
        if self._offline:
            raise RuntimeError(f"{self.ost.name} is already offline")
        self._offline = True
        self._online = Event(self.env)
        dropped = self.ost.fail_inflight(OstUnavailable(self.ost.name))
        self._rpcs_dropped += dropped
        return dropped

    def recover(self) -> None:
        """Bring the OST back: wake every parked I/O thread."""
        if not self._offline:
            raise RuntimeError(f"{self.ost.name} is not offline")
        self._offline = False
        online, self._online = self._online, None
        online.succeed()

    # -- the I/O thread ----------------------------------------------------------
    def _thread_loop(self):
        env = self.env
        policy = self.policy
        poll = policy.poll
        transfer = self.ost.transfer
        record_completion = self.jobstats.record_completion
        while True:
            if self._offline:
                # Crashed: park on the recovery broadcast.  Any wakeup
                # (requeue arrivals included) funnels back through this
                # gate, so no thread touches a dark OST.
                yield self._online
                continue
            rpc: Optional[Rpc]
            rpc, wake = poll()
            if rpc is not None:
                rpc.dequeued = env.now
                try:
                    if self.rpc_overhead_s:
                        yield env.timeout(self.rpc_overhead_s)
                        if self._offline:
                            # Crash landed during request-handling overhead,
                            # before the bulk transfer ever started.
                            raise OstUnavailable(self.ost.name)
                    yield transfer(rpc.size_bytes)
                except OstUnavailable:
                    # The crash failed this transfer (or pre-empted it):
                    # requeue the RPC — its service starts over after
                    # recovery, the Lustre client-side replay behaviour.
                    self._rpcs_retried += 1
                    policy.enqueue(rpc)
                    continue
                rpc.completed = env.now
                self._completed_rpcs += 1
                record_completion(rpc)
                for callback in self._on_complete:
                    callback(rpc)
                if rpc.reply is not None:
                    env.hop(0.0, rpc.reply, rpc)
                continue

            yield self._park(wake)

    # -- the idle pool -------------------------------------------------------------
    def _park(self, wake: float) -> Event:
        """Park the calling thread until ``wake`` or the next arrival.

        Returns the group event the thread yields; it never enters the
        calendar — a broadcast or a wake hop resumes it inline.  A thread
        parking while its own group is being drained rejoins that group,
        which :meth:`_drain` then registers; any other thread joins the
        newest group or starts one (see :meth:`_register`).
        """
        self._parked = wake
        group = self._draining
        if group is None:
            group = self._register(None, wake)
        return group

    def _register(self, group: Optional[Event], wake: float) -> Event:
        """Enrol ``group`` (None: a new group for the calling thread) on
        the current broadcast and, for a finite ``wake``, on a timer batch
        (see the module docstring).  Returns the group now registered.

        When the newest token is still the current broadcast's last and on
        the open timer batch (or, without a deadline, on none), ``group``'s
        threads would have registered right behind it, so they move into
        its group instead of taking a token of their own.  Such a token
        cannot have been woken yet: its broadcast has not dispatched and
        its timer, if any, has not fired.
        """
        env = self.env
        arrival = self.policy.wait_arrival()
        current = arrival is self._arrival
        batch = None
        if wake != _INF:
            now = env.now
            delay = wake - now
            if not delay > 0.0:
                delay = 0.0
            at = now + delay
            batch = self._timers
            if (
                batch is None
                or batch.timer is None
                or batch.at != at
                or batch.eid != env._eid
            ):
                # Anything scheduled since the open batch's timer would
                # have split the per-thread timers: arm a new one.
                self._timers = batch = _TimerBatch(at)
                timer = batch.timer = env.timeout(delay, batch)
                timer.callbacks.append(self._on_timer_cb)
                batch.eid = env._eid
            elif current and self._arrival_tokens[-1].batch is batch:
                return self._merge(group, self._arrival_tokens[-1].group)
        elif current and self._arrival_tokens[-1].batch is None:
            return self._merge(group, self._arrival_tokens[-1].group)
        if group is None:
            group = Event(env)
        token = _Token(group)
        if current:
            self._arrival_tokens.append(token)
        else:
            self._arrival = arrival
            self._arrival_tokens = tokens = [token]
            arrival.callbacks.append(partial(self._on_arrival, tokens))
        if batch is not None:
            batch.tokens.append(token)
            batch.pending += 1
            token.batch = batch
        return group

    @staticmethod
    def _merge(group: Optional[Event], into: Event) -> Event:
        """Move ``group``'s waiting threads, in order, to the end of ``into``."""
        if group is not None:
            waiters = group.callbacks
            for resume in waiters:  # each a parked Process's _resume
                resume.__self__._target = into  # type: ignore[attr-defined]
            into.callbacks.extend(waiters)
            waiters.clear()
        return into

    def _on_arrival(self, tokens: List[_Token], _event: Event) -> None:
        """A broadcast dispatched: wake its tokens in park order."""
        wake: Optional[float] = None
        for token in tokens:
            if token.woken:
                continue
            token.woken = True
            batch = token.batch
            if batch is None:
                # Waiting on the broadcast alone: resumed right here.
                wake = self._drain(token.group, wake)
                continue
            batch.pending -= 1
            if not batch.pending:
                # Every token of the batch woke early: retire its timer.
                timer = batch.timer
                batch.timer = None
                timer.cancel()
            self._defer(token)

    def _on_timer(self, event: Event) -> None:
        """A batch timer dispatched: defer-wake the tokens still pending."""
        batch = event.value
        batch.timer = None
        for token in batch.tokens:
            if not token.woken:
                token.woken = True
                self._defer(token)

    def _defer(self, token: _Token) -> None:
        """Give a woken token its wake: a zero-delay hop, or the open one
        while it is still the newest (nothing scheduled or relayed since)."""
        tokens = self._wake_tokens
        env = self.env
        if tokens is not None and env.newest_hop() is tokens:
            tokens.append(token)
            return
        self._wake_tokens = tokens = [token]
        env.hop(0.0, self._on_wake_cb, tokens)

    def _on_wake(self, tokens: List[_Token]) -> None:
        """A wake hop ran: drain its tokens in order."""
        if tokens is self._wake_tokens:
            self._wake_tokens = None
        wake: Optional[float] = None
        for token in tokens:
            wake = self._drain(token.group, wake)

    def _drain(self, group: Event, wake: Optional[float]) -> Optional[float]:
        """Resume ``group``'s threads one by one until one parks.

        ``wake`` is the deadline of a poll that already came up empty in
        this dispatch (None if none did).  Every thread after it would poll
        the same state and park with the same deadline, so the rest of the
        group is re-parked with it instead of resumed.  Returns the updated
        ``wake``.  Parked threads all wait at the same point of the same
        loop, so which of them runs next is unobservable: only the sequence
        of polls is, and it is the herd's.
        """
        waiters = group.callbacks
        if wake is None:
            self._draining = group
            while waiters:
                self._parked = None
                waiters.pop()(group)
                wake = self._parked
                if wake is not None:
                    break  # the thread rejoined this group
            self._draining = None
        if wake is not None and waiters:
            self._register(group, wake)
        return wake
