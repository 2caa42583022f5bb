"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each ``yield`` hands the engine
an :class:`~repro.sim.events.Event` to wait on; when that event is processed
the generator is resumed with the event's value (or the event's exception is
thrown into it).  A process is itself an event that triggers when the
generator returns, so processes can wait on each other.

``_resume`` is on the dispatch hot path (it is the callback attached to
every event a process waits on), so it caches the generator's bound
``send``/``throw`` and its own bound callback once at construction and
registers waits by appending to the target's callback list directly instead
of re-deriving bound methods per yield.

That cached bound method references the process itself, a reference cycle
that reference counting cannot free.  The run loop pauses the cyclic
collector (docs/performance.md §"No cycles, no collector in the loop"), so
a process drops it as soon as it finishes or is killed: a finished process
is then freed like any other event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The process body.  Must be a generator (i.e. contain ``yield``).
    name:
        Optional label used in diagnostics.
    """

    __slots__ = ("_generator", "_target", "name", "_send", "_throw", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        #: Event this process is currently waiting on (None once finished).
        self._target: Optional[Event] = None

        # Kick the process off via an immediately-triggered bootstrap event.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume_cb)
        bootstrap._ok = True
        bootstrap._value = None
        env._schedule(bootstrap, priority=0)
        self._target = bootstrap

    # -- public API ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently suspended on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process raises ``RuntimeError``; interrupting
        a process that is about to be resumed is handled gracefully (the
        interrupt wins).
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")

        # Deliver asynchronously so the interrupter's own execution finishes
        # first — mirrors signal semantics and keeps ordering deterministic.
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True
        wakeup.callbacks.append(self._resume_cb)
        self.env._schedule(wakeup, priority=0)

        # Detach from whatever we were waiting on so the original event's
        # later arrival does not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            self._target.remove_callback(self._resume_cb)
        self._target = None

    def kill(self) -> None:
        """Terminate the process cleanly at the current time.

        Unlike :meth:`interrupt`, which throws into the generator and lets
        it react, ``kill`` closes the generator outright and *succeeds* the
        process event — so composites waiting on many processes (a run's
        ``all_clients_done``) see an orderly early exit, not a failure.
        The fault axis's client-churn "leave" is the canonical caller:
        whatever events the victim was awaiting keep their own lifecycle
        (they fire later with no waiter attached), so the dispatch order
        of everything else is untouched.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated; cannot kill")
        if self._target is not None and self._target.callbacks is not None:
            self._target.remove_callback(self._resume_cb)
        self._target = None
        self._generator.close()
        self.succeed(None)
        del self._resume_cb  # a bound method on self: a self-cycle

    # -- engine plumbing ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        send = self._send
        try:
            while True:
                if event._ok:
                    try:
                        next_target = send(event._value)
                    except StopIteration as stop:
                        self._finish(value=stop.value)
                        return
                    except BaseException as exc:
                        self._finish(error=exc)
                        return
                else:
                    # The awaited event failed: raise inside the process.
                    event.defused()
                    try:
                        next_target = self._throw(event._value)
                    except StopIteration as stop:
                        self._finish(value=stop.value)
                        return
                    except BaseException as exc:
                        self._finish(error=exc)
                        return

                if not isinstance(next_target, Event):
                    error = TypeError(
                        f"process {self.name!r} yielded {next_target!r}; "
                        "expected an Event"
                    )
                    self._finish(error=error)
                    return
                callbacks = next_target.callbacks
                if callbacks is None:
                    # Already done: loop immediately with its outcome.
                    event = next_target
                    continue
                callbacks.append(self._resume_cb)
                self._target = next_target
                return
        finally:
            env._active_process = None

    def _finish(
        self, value: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self._target = None
        if error is not None:
            self.fail(error)
        else:
            self.succeed(value)
        del self._resume_cb  # a bound method on self: a self-cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
