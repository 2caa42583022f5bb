"""Adjacent-slot batching: ``Environment.relay`` and ``Environment.hop``.

A relay or hop whose calendar slot comes right after the newest relay/hop
entry rides that entry's carrier instead of taking an entry of its own.
The work must still run in exactly the order ``Event.succeed`` and
``env.timeout`` would have given it.  The cases below are the ones where a
carrier has to stop between two members: a member pushes a priority-0
entry at the same instant (a process bootstrap or an interrupt), a member
is the ``run(until=...)`` event, or the caller steps one event at a time.
Each is checked against the same program driven through ``succeed`` and
``timeout``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt


class Driver:
    """Schedules zero-delay triggers and delayed calls one of two ways:
    through ``relay``/``hop`` (``batched``) or through ``succeed``/
    ``timeout`` (the reference)."""

    def __init__(self, env, batched):
        self.env = env
        self.batched = batched

    def now(self, callback):
        """Trigger a fresh event now; returns it."""
        event = self.env.event()
        event.callbacks.append(callback)
        if self.batched:
            self.env.relay(event)
        else:
            event.succeed()
        return event

    def after(self, delay, fn, arg):
        """Call ``fn(arg)`` after ``delay``."""
        if self.batched:
            self.env.hop(delay, fn, arg)
        else:
            self.env.timeout(delay).callbacks.append(lambda _event: fn(arg))


def both(program):
    """Run ``program(env, driver, log)`` batched and as reference."""
    logs = []
    for batched in (True, False):
        env = Environment()
        log = []
        program(env, Driver(env, batched), log)
        logs.append(log)
    return logs


def test_adjacent_relays_share_one_entry():
    env = Environment()
    log = []
    for k in range(5):
        event = env.event()
        event.callbacks.append(lambda _e, k=k: log.append(k))
        env.relay(event, k)
        assert event.triggered and event.value == k
    # The first relay takes its own entry, a carrier takes the rest.
    assert env.scheduled == 2
    env.run()
    assert log == [0, 1, 2, 3, 4]
    assert env.dispatched == 2


def test_anything_scheduled_in_between_opens_a_new_entry():
    env = Environment()
    log = []
    env.hop(0.0, log.append, "a")
    env.timeout(0.0).callbacks.append(lambda _e: log.append("t"))
    env.hop(0.0, log.append, "b")
    env.hop(1.0, log.append, "c")  # another instant
    env.hop(1.0, log.append, "d")
    assert env.scheduled == 4
    env.run()
    assert log == ["a", "t", "b", "c", "d"]


def test_relaying_a_triggered_event_raises():
    env = Environment()
    event = env.event().succeed()
    with pytest.raises(RuntimeError):
        env.relay(event)


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_bad_hop_delay_is_rejected(delay):
    with pytest.raises(ValueError):
        Environment().hop(delay, print, None)


def test_member_spawning_a_process_splits_the_carrier():
    """The bootstrap (priority 0) runs before the next member."""

    def program(env, driver, log):
        def child():
            log.append("boot")
            yield env.timeout(0)

        def fire(k):
            log.append(f"E{k}")
            if k == 0:
                env.process(child())

        for k in range(4):
            driver.after(0.5, fire, k)
        env.run()

    batched, reference = both(program)
    assert reference == ["E0", "boot", "E1", "E2", "E3"]
    assert batched == reference


def test_relayed_member_spawning_a_process_splits_the_carrier():
    def program(env, driver, log):
        def child():
            log.append("boot")
            yield env.timeout(0)

        def fire(k):
            log.append(f"E{k}")
            if k == 1:
                env.process(child())

        for k in range(4):
            driver.now(lambda _e, k=k: fire(k))
        env.run()

    batched, reference = both(program)
    assert reference == ["E0", "E1", "boot", "E2", "E3"]
    assert batched == reference


def test_member_interrupting_a_process_splits_the_carrier():
    def program(env, driver, log):
        def sleeper():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                log.append("interrupted")

        victim = env.process(sleeper())

        def fire(k):
            log.append(f"E{k}")
            if k == 1:
                victim.interrupt()

        def start():
            yield env.timeout(0.25)
            for k in range(4):
                driver.after(0.25, fire, k)

        env.process(start())
        env.run()

    batched, reference = both(program)
    assert reference == ["E0", "E1", "interrupted", "E2", "E3"]
    assert batched == reference


def test_run_until_a_member_stops_right_after_it():
    env = Environment()
    log = []
    events = []
    for k in range(4):
        event = env.event()
        event.callbacks.append(lambda _e, k=k: log.append(k))
        events.append(env.relay(event))
    assert env.run(until=events[1]) is None
    assert log == [0, 1]
    env.run()
    assert log == [0, 1, 2, 3]


def test_run_until_a_member_then_join_the_refiled_carrier():
    """After a stop, a relay with nothing scheduled since still comes right
    after the last member."""

    def program(env, driver, log):
        events = [driver.now(lambda _e, k=k: log.append(k)) for k in range(4)]
        env.run(until=events[2])
        driver.now(lambda _e: log.append("late"))
        env.timeout(0).callbacks.append(lambda _e: log.append("t"))
        env.run()

    batched, reference = both(program)
    assert reference == [0, 1, 2, 3, "late", "t"]
    assert batched == reference


def test_relay_after_the_carrier_ran_out_takes_a_new_entry():
    """Stopping on a carrier's last member leaves nothing to join."""

    def program(env, driver, log):
        events = [driver.now(lambda _e, k=k: log.append(k)) for k in range(3)]
        env.run(until=events[-1])
        driver.now(lambda _e: log.append("late"))
        driver.after(0.0, log.append, "hop")
        env.run()

    batched, reference = both(program)
    assert reference == [0, 1, 2, "late", "hop"]
    assert batched == reference


def test_cancelled_member_is_skipped():
    def program(env, driver, log):
        events = [driver.now(lambda _e, k=k: log.append(k)) for k in range(5)]
        events[2].cancel()
        # A member may also cancel a later one while the carrier runs.
        events[0].callbacks.append(lambda _e: events[3].cancel())
        env.run()

    batched, reference = both(program)
    assert reference == [0, 1, 4]
    assert batched == reference


def test_step_runs_one_member_per_call():
    env = Environment()
    log = []
    for k in range(3):
        env.hop(0.5, log.append, k)
    env.step()
    assert (env.now, log) == (0.5, [0])
    env.step()
    assert log == [0, 1]
    env.step()
    assert log == [0, 1, 2]
    assert env.peek() == float("inf")


def test_member_joined_during_dispatch_runs_in_the_same_dispatch():
    def program(env, driver, log):
        def fire(k):
            log.append(k)
            if k < 3:
                driver.after(0.0, fire, k + 10)

        for k in range(3):
            driver.after(0.0, fire, k)
        env.run()

    batched, reference = both(program)
    assert reference == [0, 1, 2, 10, 11, 12]
    assert batched == reference


def test_a_raising_member_leaves_the_rest_on_the_calendar():
    env = Environment()
    log = []

    def fire(k):
        if k == 1:
            raise KeyError(k)
        log.append(k)

    for k in range(4):
        env.hop(0.0, fire, k)
    with pytest.raises(KeyError):
        env.run()
    env.run()
    assert log == [0, 2, 3]


# -- random programs -----------------------------------------------------------

#: One action of a node: trigger a node now, call one after a delay, spawn a
#: process that triggers one, interrupt a sleeper, or cancel the newest
#: zero-delay trigger.
ACTION = st.one_of(
    st.tuples(st.just("now"), st.integers(0, 7)),
    st.tuples(st.just("after"), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 7)),
    st.tuples(st.just("spawn"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 2)),
    st.tuples(st.just("cancel")),
)

PROGRAM = st.tuples(
    st.lists(st.lists(ACTION, max_size=4), min_size=8, max_size=8),
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    st.integers(0, 12),
)


def run_program(program, batched):
    """Drive a random program; return the order nodes fired in.

    The run takes ``steps`` single steps, then runs until the newest
    zero-delay trigger (if one is pending), then to a fixed horizon.
    """
    nodes, roots, steps = program
    env = Environment()
    driver = Driver(env, batched)
    log = []
    triggers = []

    def fire(j):
        log.append((env.now, j))
        if len(log) > 120:
            return
        for action in nodes[j]:
            kind = action[0]
            if kind == "now":
                triggers.append(driver.now(lambda _e, j=action[1]: fire(j)))
            elif kind == "after":
                driver.after(action[1], fire, action[2])
            elif kind == "spawn":
                env.process(spawned(action[1]))
            elif kind == "interrupt":
                victim = sleepers[action[1]]
                if victim.is_alive and env.active_process is not victim:
                    victim.interrupt()
            elif triggers and not triggers[-1].processed:
                triggers[-1].cancel()

    def spawned(j):
        fire(j)
        yield env.timeout(0.5)
        fire((j + 1) % 8)

    def sleeper(k):
        while True:
            try:
                yield env.timeout(50.0)
            except Interrupt:
                log.append(("interrupted", env.now, k))

    sleepers = [env.process(sleeper(k)) for k in range(3)]
    for j in roots:
        driver.after(0.0, fire, j)
    for _ in range(steps):
        env.step()
        log.append("step")
    if triggers and not triggers[-1].processed:
        env.run(until=triggers[-1])
        log.append(("stopped", env.now))
    env.run(until=env.now + 40.0)
    return log


@given(program=PROGRAM)
@settings(max_examples=150, deadline=None)
def test_random_programs_fire_in_the_reference_order(program):
    assert run_program(program, True) == run_program(program, False)
