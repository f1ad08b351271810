"""Unit tests for the discrete-event engine."""

import sys

import pytest

from repro.sim.engine import (
    AnyWait,
    Completion,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(250)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 250
    assert sim.now == 250


def test_a_spent_sleep_keeps_no_reference():
    """A yielded sleep resumes its process from the process's own heap
    entry, which refers to the process, not to the sleep: once it has
    resumed, only its owner still holds the sleep."""
    sim = Simulator()
    nap = sim.timeout(5)
    held = sys.getrefcount(nap)

    def sleeper(nap):
        yield nap
        return sim.now

    p = sim.spawn(sleeper(nap))
    sim.run()
    assert p.value == 5
    assert sim._heap == []
    assert sys.getrefcount(nap) == held


def test_zero_timeout_runs_same_timestep():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(300, order.append, "c")
    sim.call_in(100, order.append, "a")
    sim.call_in(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for tag in ("x", "y", "z"):
        sim.call_in(50, order.append, tag)
    sim.run()
    assert order == ["x", "y", "z"]


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_in(1000, fired.append, 1)
    sim.run(until=500)
    assert fired == []
    assert sim.now == 500
    sim.run()
    assert fired == [1]


def test_process_return_value_joinable():
    sim = Simulator()

    def child():
        yield sim.timeout(10)
        return 42

    def parent():
        value = yield sim.spawn(child())
        return value + 1

    p = sim.spawn(parent())
    sim.run()
    assert p.value == 43


def test_yield_from_subroutine_composes():
    sim = Simulator()

    def sub(n):
        yield sim.timeout(n)
        return n * 2

    def main():
        a = yield from sub(5)
        b = yield from sub(7)
        return (a, b, sim.now)

    p = sim.spawn(main())
    sim.run()
    assert p.value == (10, 14, 12)


def test_completion_delivers_value():
    sim = Simulator()
    done = sim.completion("x")

    def waiter():
        value = yield done
        return value

    p = sim.spawn(waiter())
    sim.call_in(100, done.trigger, "payload")
    sim.run()
    assert p.value == "payload"


def test_completion_trigger_twice_raises():
    sim = Simulator()
    done = sim.completion()
    done.trigger(1)
    with pytest.raises(SimulationError):
        done.trigger(2)


def test_already_triggered_completion_resumes_immediately():
    sim = Simulator()
    done = sim.completion()
    done.trigger("early")

    def waiter():
        value = yield done
        return (value, sim.now)

    p = sim.spawn(waiter())
    sim.run()
    assert p.value == ("early", 0)


def test_completion_failure_propagates_into_process():
    sim = Simulator()
    done = sim.completion()

    def waiter():
        try:
            yield done
        except RuntimeError as err:
            return "caught:%s" % err
        return "no-error"

    p = sim.spawn(waiter())
    sim.call_in(5, done.fail, RuntimeError("boom"))
    sim.run()
    assert p.value == "caught:boom"


def test_process_crash_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError:
            return "observed"

    p = sim.spawn(parent())
    sim.run()
    assert p.value == "observed"


def test_unjoined_process_crash_surfaces_from_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("unobserved")

    sim.spawn(child())
    with pytest.raises(ValueError):
        sim.run()


def test_any_wait_resumes_with_the_first_event_done():
    sim = Simulator()
    slow, fast = sim.completion("slow"), sim.completion("fast")
    sim.call_in(100, slow.trigger, "slow")
    sim.call_in(10, fast.trigger, "fast")

    def waiter():
        index, value = yield AnyWait([slow, fast], None)
        return (index, value, sim.now)

    p = sim.spawn(waiter())
    sim.run()
    assert p.value == (1, "fast", 10)
    assert slow._callbacks == []  # the loser was let go at the win


def test_any_wait_deadline_resumes_past_the_last_index():
    sim = Simulator()
    never = sim.completion("never")

    def waiter():
        index, value = yield AnyWait([never], 50)
        return (index, value, sim.now)

    p = sim.spawn(waiter())
    assert sim.run() == 50
    assert p.value == (1, None, 50)
    assert never._callbacks == []


def test_any_wait_won_before_its_deadline_withdraws_it():
    sim = Simulator()
    event = sim.completion("event")
    sim.call_in(10, event.trigger, "won")

    def waiter():
        return (yield AnyWait([event], 10**6))

    p = sim.spawn(waiter())
    assert sim.run() == 10  # the deadline's entry moved nothing
    assert p.value == (0, "won")
    assert sim._heap == []


def test_waiting_on_completions_in_turn_returns_after_the_last():
    # How a process waits for all of several completions (Vfs.fsync's
    # pending writes): one yield each, in list order; those already done
    # by their turn resume it in the same instant.
    sim = Simulator()
    events = [sim.completion() for _ in range(3)]
    for event, t in zip(events, (30, 10, 20)):
        sim.call_in(t, event.trigger, t)

    def waiter():
        values, resumed = [], []
        for event in events:
            values.append((yield event))
            resumed.append(sim.now)
        return (values, resumed)

    p = sim.spawn(waiter())
    sim.run()
    assert p.value == ([30, 10, 20], [30, 30, 30])


def test_interrupt_wakes_blocked_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(10**9)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    p = sim.spawn(sleeper())
    sim.call_in(77, p.interrupt, "wakeup")
    sim.run()
    assert p.value == ("interrupted", "wakeup", 77)


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)
        return "done"

    p = sim.spawn(quick())
    sim.run()
    p.interrupt("late")
    sim.run()
    assert p.value == "done"


def test_yielding_garbage_is_an_error():
    sim = Simulator()

    def bad():
        yield 12345

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(500)
        return "ok"

    p = sim.spawn(proc())
    assert sim.run_until_complete(p) == "ok"


def test_run_until_complete_respects_limit():
    sim = Simulator()
    blocked = sim.completion()

    def proc():
        yield blocked

    def feeder():
        while True:
            yield sim.timeout(1000)

    p = sim.spawn(proc())
    sim.spawn(feeder())
    with pytest.raises(SimulationError):
        sim.run_until_complete(p, limit=10000)


def test_many_processes_independent_clocks():
    sim = Simulator()
    results = {}

    def proc(name, delay):
        yield sim.timeout(delay)
        results[name] = sim.now

    for i in range(50):
        sim.spawn(proc(i, i * 10))
    sim.run()
    assert results == {i: i * 10 for i in range(50)}


def test_livelock_detection_raises_instead_of_hanging():
    """A process spinning on instantly-triggered completions fails loudly."""
    sim = Simulator()

    def spinner():
        while True:
            done = sim.completion()
            done.trigger(None)
            yield done  # already triggered: resumes synchronously forever

    sim.spawn(spinner())
    with pytest.raises(SimulationError, match="livelocked"):
        sim.run()
