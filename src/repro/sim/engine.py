"""The discrete-event simulation core.

:class:`Environment` owns the virtual clock and the event calendar.  Time
only advances when the engine pops the next scheduled event; between events
the simulated world is frozen, which is what lets us reproduce the paper's
100 ms control loop with perfect determinism.

Scheduling order is a total order over ``(time, priority, sequence)`` so two
events at the same instant are processed in FIFO creation order unless a
priority says otherwise — the same tiebreak real Lustre gets implicitly from
its work queues.  Determinism is the engine's invariant: every optimization
below preserves the exact ``(time, priority, seq)`` dispatch order, which is
pinned by the dispatch-stream goldens in ``tests/sim/`` and by the
byte-identical fig3–fig9 outputs (see docs/performance.md).

The calendar is one binary heap (``heapq``) of bare ``(time, priority, seq,
event)`` tuples with lazy cancellation: a cancelled event's entry stays on
the heap and is skipped when it surfaces.  :meth:`Environment.run` resolves
its stop condition once and then runs one of three specialized dispatch
loops, each holding the calendar, the pop and the timeout free list in
locals; a fourth, readable loop serves traced runs.  Dispatched timeouts
are recycled through a refcount-gated free list
(``Environment(reuse_timeouts=False)`` disables reuse; the determinism
goldens assert identical dispatch streams either way).

Every scheduling site routes through ``env._push`` — a ``functools.partial``
of the C ``heappush`` bound to the calendar — so the event types in
:mod:`repro.sim.events` schedule without a Python frame per insert.

Adjacent slots share one entry.  Work that would take the calendar slot
right after the previous entry — same time, same priority, and nothing
scheduled since (``_eid`` unmoved) — dispatches back to back with it, so
:meth:`Environment.relay` (a zero-delay success) and :meth:`Environment.hop`
(``fn(arg)`` after a delay) let such runs ride one *carrier* entry that
runs its members in order.  The first relay of a run is pushed as the event
itself, exactly where :meth:`Event.succeed` would put it; a carrier opens
for the second item onward.  A carrier dispatch stops early and re-files
its remainder under its own key when a member pushed a priority-0 entry at
the same instant (a process bootstrap or an interrupt, which would have
dispatched between two members) or processed the ``run(until=event)``
event, and :meth:`Environment.step` runs one member per call.  The
``(time, priority, seq)`` order of the work is unchanged; only the number
of calendar entries is (see docs/performance.md §"Adjacent slots share one
entry").
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import _PENDING, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "SimulationError", "PRIORITY_URGENT", "PRIORITY_NORMAL"]

#: Priority for engine-internal wakeups that must precede user events.
PRIORITY_URGENT = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL = 1

#: Upper bound on recycled Timeout objects kept per environment.  Enough to
#: cover every concurrently pending timeout of a large cluster while keeping
#: a drained environment's footprint bounded.
_FREE_LIST_CAP = 4096


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. running a finished simulation)."""


class _Stop:
    """A stand-in ``until`` event for carrier dispatch: ``callbacks`` is
    None (processed) for :data:`_STEP` and never None for :data:`_NO_STOP`."""

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: Optional[list]) -> None:
        self.callbacks = callbacks


#: No ``until`` event: a carrier runs to its end (unless split).
_NO_STOP = _Stop([])
#: :meth:`Environment.step`: a carrier runs one member, then re-files.
_STEP = _Stop(None)


class _Carrier(Event):
    """One calendar entry carrying a run of adjacent-slot members.

    ``members`` holds ``(fn, arg)`` pairs in slot order: ``fn(arg)`` for a
    hop, ``(None, event)`` for a relayed event whose callbacks run as if it
    had its own entry.  ``key`` is the carrier's ``(time, priority, seq)``
    and ``next`` the index of the first member not yet run.
    """

    __slots__ = ("members", "key", "next")

    def __init__(self, env: "Environment", key: Tuple[float, int, int]) -> None:
        self.env = env
        self.callbacks = [env._run_carrier]
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.members: List[Tuple[Any, Any]] = []
        self.key = key
        self.next = 0

    def live(self) -> bool:
        """True while a member not yet run is a hop or an uncancelled
        event."""
        return any(
            fn is not None or arg.callbacks is not None
            for fn, arg in self.members[self.next :]
        )


def _finish_run(stop_event: Optional[Event]) -> Any:
    """Shared run() epilogue: resolve an ``until=event`` stop condition."""
    if stop_event is not None:
        if not stop_event.processed:
            raise SimulationError(
                "run() ran out of events before the condition triggered"
            )
        if not stop_event.ok:
            raise stop_event.value
        return stop_event.value
    return None


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in seconds.
    reuse_timeouts:
        Recycle dispatched :class:`Timeout` objects through a free list
        (default).  Reuse is gated on a refcount check, so a timeout anyone
        still holds a reference to is never recycled; disabling exists for
        the determinism tests, which assert traces match with it on and off.

    Notes
    -----
    All component models in this repository (clients, NRS, OSTs, the
    bandwidth-mechanism handles) take an ``Environment`` as their first
    constructor argument and interact exclusively through it, which keeps
    every experiment single-threaded and bit-for-bit reproducible for a
    given seed.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_process",
        "_dispatched",
        "_free_timeouts",
        "_reuse_timeouts",
        "_push",
        "_relay_eid",
        "_relay_at",
        "_relay_carrier",
        "_stop",
        "trace",
    )

    def __init__(self, initial_time: float = 0.0, reuse_timeouts: bool = True) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._dispatched = 0
        self._free_timeouts: List[Timeout] = []
        self._reuse_timeouts = bool(reuse_timeouts)
        #: Calendar insert; every scheduling site (including the event types
        #: in :mod:`repro.sim.events`) pushes ``(time, priority, seq, event)``
        #: entries through it.
        self._push: Callable[[Tuple[float, int, int, Event]], None] = partial(
            heappush, self._queue
        )
        # Adjacent-slot state: the seq and time of the newest relay/hop
        # entry and, when that entry is a carrier still open for members,
        # the carrier.  ``_stop`` is the running ``until`` event (or a
        # stand-in) that a carrier checks between members.
        self._relay_eid = -1
        self._relay_at = 0.0
        self._relay_carrier: Optional[_Carrier] = None
        self._stop: Any = _NO_STOP
        #: Optional dispatch hook ``trace(time, priority, seq, event)`` —
        #: invoked for every dispatched event, in dispatch order.  Used by
        #: the determinism tests; leave ``None`` in production runs.
        self.trace: Optional[Callable[[float, int, int, Event], None]] = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def dispatched(self) -> int:
        """Calendar entries dispatched so far (skipped cancelled entries do
        not count; a carrier counts once per dispatch, however many members
        it runs)."""
        return self._dispatched

    @property
    def scheduled(self) -> int:
        """Calendar entries scheduled so far (inserts stamped with a seq).

        Relays and hops that ride an open carrier take no entry and are not
        counted, so the count is a measure of calendar work: it moves when
        the engine or a model learns to do the same work with fewer entries
        (the events-per-RPC counter of the benchmarks), while the
        ``(time, priority, seq)`` order of the work itself stays fixed.
        """
        return self._eid

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event` bound to this env."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Serves from the free list when a recycled timeout is available;
        otherwise constructs a fresh :class:`Timeout`.
        """
        free = self._free_timeouts
        if free:
            if not delay >= 0:  # also rejects NaN
                raise ValueError(f"negative timeout delay: {delay!r}")
            timeout = free.pop()
            timeout._value = value
            timeout._defused = False
            timeout._cancelled = False
            timeout.delay = delay = float(delay)
            self._eid = eid = self._eid + 1
            self._push((self._now + delay, PRIORITY_NORMAL, eid, timeout))
            return timeout
        return Timeout(self, delay, value)

    def relay(self, event: Event, value: Any = None) -> Event:
        """Succeed ``event`` with ``value`` now, like :meth:`Event.succeed`.

        Its callbacks run in the slot ``succeed`` would have given it.  When
        that slot is the one right after the newest relay/hop entry (same
        time, nothing scheduled since), the event rides that entry's carrier
        instead of taking an entry of its own.
        """
        if event._value is not _PENDING or event._cancelled:
            raise RuntimeError(f"{event!r} already triggered")
        event._ok = True
        event._value = value
        now = self._now
        if self._eid == self._relay_eid and now == self._relay_at:
            carrier = self._relay_carrier
            if carrier is None:
                carrier = self._open_carrier(now)
            carrier.members.append((None, event))
            return event
        self._eid = eid = self._eid + 1
        self._push((now, PRIORITY_NORMAL, eid, event))
        self._relay_eid = eid
        self._relay_at = now
        self._relay_carrier = None
        return event

    def hop(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` ``delay`` seconds from now, in the slot a
        ``timeout(delay)`` created now would take.

        Adjacent hops (and relays) share one carrier entry; a hop that
        starts a run opens one.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative hop delay: {delay!r}")
        at = self._now + delay
        carrier = self._relay_carrier
        if carrier is None or self._eid != self._relay_eid or at != self._relay_at:
            carrier = self._open_carrier(at)
        carrier.members.append((fn, arg))

    def newest_hop(self) -> Any:
        """The ``arg`` of the newest relay/hop member while nothing has been
        scheduled, relayed or hopped since (else None).

        Work added to that ``arg`` runs in the slot a further hop at the
        same time would get, so a caller batching its own payloads (the OSS
        deferred wakes) may extend it instead of hopping again.
        """
        carrier = self._relay_carrier
        if carrier is None or self._eid != self._relay_eid:
            return None
        return carrier.members[-1][1]

    def _open_carrier(self, at: float) -> _Carrier:
        """Push a new, empty carrier at ``at`` and make it the open one."""
        self._eid = eid = self._eid + 1
        carrier = _Carrier(self, (at, PRIORITY_NORMAL, eid))
        self._push((at, PRIORITY_NORMAL, eid, carrier))
        self._relay_eid = eid
        self._relay_at = at
        self._relay_carrier = carrier
        return carrier

    def _run_carrier(self, carrier: _Carrier) -> None:
        """Run a dispatched carrier's members in slot order.

        Members joined during the dispatch (nothing scheduled since, so
        their slots come right after the last member) run in it too.  The
        dispatch stops, re-filing the remainder under the carrier's own key,
        when the next member no longer comes next: a member pushed a
        priority-0 entry at this instant, or processed the run's ``until``
        event (``step`` counts as processed after every member).
        """
        members = carrier.members
        key = carrier.key
        queue = self._queue
        stop = self._stop
        eid = self._eid
        i = carrier.next
        try:
            while i < len(members):
                fn, arg = members[i]
                i += 1
                if fn is None:
                    callbacks = arg.callbacks
                    if callbacks is None:
                        continue  # cancelled while riding the carrier
                    arg.callbacks = None
                    for callback in callbacks:
                        callback(arg)
                else:
                    fn(arg)
                if self._eid != eid:
                    # Something was scheduled: a priority-0 entry at this
                    # instant sorts before the rest of the carrier.
                    eid = self._eid
                    if queue[0] < key:
                        break
                if stop.callbacks is None:
                    break
        finally:
            # Also after a raising member: the rest stays on the calendar.
            if i < len(members):
                carrier.next = i
                carrier.callbacks = [self._run_carrier]
                self._push(key + (carrier,))
            elif self._relay_carrier is carrier:
                self._relay_carrier = None

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn ``generator`` as a simulation process and return its handle."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.events import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.events import AllOf

        return AllOf(self, list(events))

    # -- scheduling ----------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Place a triggered event on the calendar ``delay`` seconds from now."""
        self._eid += 1
        self._push((self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` when idle.

        May report a lazily-cancelled entry's time; the run loops treat that
        conservatively (they pop it, see it is dead, and move on).
        """
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Dispatch exactly one live event, advancing the clock to its time.

        Lazily-cancelled entries surfacing at the calendar head are discarded
        without counting as the dispatched event.
        """
        queue = self._queue
        while queue:
            when, priority, seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is None:
                continue  # lazily cancelled; never dispatched
            if type(event) is _Carrier and not event.live():
                # Every member left was cancelled: skip it like one.
                if self._relay_carrier is event:
                    self._relay_carrier = None
                continue
            self._stop = _STEP  # a carrier runs one live member
            try:
                self._dispatch(when, priority, seq, event, callbacks)
            finally:
                self._stop = _NO_STOP
            return
        raise SimulationError("step() on an empty event queue")

    def _dispatch(self, when, priority, seq, event, callbacks) -> None:
        """Deliver one popped event (the non-inlined, single-step path)."""
        self._now = when
        if self.trace is not None:
            self.trace(when, priority, seq, event)
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        self._dispatched += 1
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it rather than losing it.
            raise event._value
        if (
            self._reuse_timeouts
            and type(event) is Timeout
            # Only the dispatch loop's local and getrefcount's argument
            # reference the object: nothing in user code can observe reuse.
            and getrefcount(event) == 3
            and len(self._free_timeouts) < _FREE_LIST_CAP
        ):
            callbacks.clear()
            event.callbacks = callbacks
            self._free_timeouts.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until ``until`` (a time or an event) or until no events remain.

        Returns the value of ``until`` when it is an event; otherwise ``None``.

        Notes
        -----
        The stop condition is resolved once, then one of three specialized
        dispatch loops runs with everything — calendar, pop, free list —
        held in locals.  Each loop preserves the exact ``(time, priority,
        seq)`` total order and the exact per-event semantics of
        :meth:`step`.  Traced runs take :meth:`_run_traced` instead.
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None

        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        else:
            stop_at = float(until)
            if stop_at != stop_at:
                raise SimulationError("run(until=nan) is not a time")
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})"
                )

        if stop_event is not None:
            self._stop = stop_event
        if self.trace is not None:
            # Traced runs take the readable one-event-at-a-time path.
            try:
                return self._run_traced(stop_at, stop_event)
            finally:
                self._stop = _NO_STOP

        queue = self._queue
        pop = heappop
        reuse = self._reuse_timeouts
        free = self._free_timeouts
        cap = _FREE_LIST_CAP
        timeout_type = Timeout
        refcount = getrefcount
        dispatched = self._dispatched
        try:
            if stop_event is not None:
                while queue and stop_event.callbacks is not None:
                    when, _priority, _seq, event = pop(queue)
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Lazily-cancelled: skip, but recycle the carcass.
                        if (
                            reuse
                            and type(event) is timeout_type
                            and refcount(event) == 2
                            and len(free) < cap
                        ):
                            event.callbacks = []
                            free.append(event)
                        continue
                    self._now = when
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    dispatched += 1
                    if not event._ok and not event._defused:
                        raise event._value
                    if (
                        reuse
                        and type(event) is timeout_type
                        and refcount(event) == 2
                        and len(free) < cap
                    ):
                        # Park the emptied callback list on the recycled
                        # instance so reuse skips the list allocation too.
                        callbacks.clear()
                        event.callbacks = callbacks
                        free.append(event)
            elif stop_at is not None:
                while True:
                    if not queue or queue[0][0] > stop_at:
                        self._now = stop_at
                        break
                    when, _priority, _seq, event = pop(queue)
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Lazily-cancelled: skip, but recycle the carcass.
                        if (
                            reuse
                            and type(event) is timeout_type
                            and refcount(event) == 2
                            and len(free) < cap
                        ):
                            event.callbacks = []
                            free.append(event)
                        continue
                    self._now = when
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    dispatched += 1
                    if not event._ok and not event._defused:
                        raise event._value
                    if (
                        reuse
                        and type(event) is timeout_type
                        and refcount(event) == 2
                        and len(free) < cap
                    ):
                        # Park the emptied callback list on the recycled
                        # instance so reuse skips the list allocation too.
                        callbacks.clear()
                        event.callbacks = callbacks
                        free.append(event)
            else:
                while queue:
                    when, _priority, _seq, event = pop(queue)
                    callbacks = event.callbacks
                    if callbacks is None:
                        # Lazily-cancelled: skip, but recycle the carcass.
                        if (
                            reuse
                            and type(event) is timeout_type
                            and refcount(event) == 2
                            and len(free) < cap
                        ):
                            event.callbacks = []
                            free.append(event)
                        continue
                    self._now = when
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    dispatched += 1
                    if not event._ok and not event._defused:
                        raise event._value
                    if (
                        reuse
                        and type(event) is timeout_type
                        and refcount(event) == 2
                        and len(free) < cap
                    ):
                        # Park the emptied callback list on the recycled
                        # instance so reuse skips the list allocation too.
                        callbacks.clear()
                        event.callbacks = callbacks
                        free.append(event)
        finally:
            self._dispatched = dispatched
            self._stop = _NO_STOP

        return _finish_run(stop_event)

    def _run_traced(
        self, stop_at: Optional[float], stop_event: Optional[Event]
    ) -> Any:
        """The observable (hook-calling) run loop used when ``trace`` is set."""
        queue = self._queue
        while queue:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if stop_at is not None and queue[0][0] > stop_at:
                self._now = stop_at
                break
            when, priority, seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is None:
                continue
            self._dispatch(when, priority, seq, event, callbacks)
        else:
            if stop_at is not None:
                self._now = stop_at

        return _finish_run(stop_event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now!r} pending={len(self._queue)}>"
