"""Robustness tests for the engine: nesting, cascades, odd orderings."""

import pytest

from repro.sim.engine import (
    AnyWait,
    Interrupt,
    SimulationError,
    Simulator,
)


class TestNestedSpawning:
    def test_process_spawning_processes(self):
        sim = Simulator()
        results = []

        def grandchild(n):
            yield sim.timeout(n)
            results.append(("gc", n, sim.now))
            return n

        def child(n):
            value = yield sim.spawn(grandchild(n))
            results.append(("c", n, sim.now))
            return value * 2

        def root():
            total = 0
            for n in (5, 3):
                total += yield sim.spawn(child(n))
            return total

        p = sim.spawn(root())
        sim.run()
        assert p.value == 16  # (5 + 3) * 2

    def test_spawn_inside_a_process_does_not_run_the_child_reentrantly(self):
        sim = Simulator()
        order = []

        def child():
            order.append(("child starts", sim._active.name))
            yield sim.timeout(0)

        def parent():
            proc = sim.spawn(child(), name="child")
            order.append(("parent goes on", sim._active.name,
                          proc.alive))
            yield sim.timeout(0)

        sim.spawn(parent(), name="parent")
        sim.run()
        assert order == [("parent goes on", "parent", True),
                         ("child starts", "child")]

    def test_a_process_that_wakes_another_is_still_the_active_one(self):
        # The woken process runs inside the waker's trigger; when it
        # parks, the waker is the active process again, not nobody.
        sim = Simulator()
        done = sim.completion("done")
        order = []

        def waiter():
            yield done
            order.append(("waiter woke", sim._active.name))

        def waker():
            yield sim.timeout(1)
            done.trigger()
            order.append(("waker goes on", sim._active
                          and sim._active.name))

        sim.spawn(waiter(), name="waiter")
        sim.spawn(waker(), name="waker")
        sim.run()
        assert order == [("waiter woke", "waiter"),
                         ("waker goes on", "waker")]
        assert sim._active is None

    def test_fan_out_fan_in(self):
        sim = Simulator()

        def worker(n):
            yield sim.timeout(n * 10)
            return n * n

        def root():
            workers = [sim.spawn(worker(n)) for n in range(5)]
            total = 0
            for w in workers:
                total += yield w
            return total

        p = sim.spawn(root())
        sim.run()
        assert p.value == sum(n * n for n in range(5))


class TestInterruptCascades:
    def test_interrupt_chain(self):
        """Interrupting a parent that is joined on a child."""
        sim = Simulator()
        events = []

        def child():
            try:
                yield sim.timeout(10**9)
            except Interrupt:
                events.append("child-interrupted")
                raise

        def parent():
            child_proc = sim.spawn(child())
            try:
                yield child_proc
            except Interrupt:
                events.append("parent-interrupted")
                child_proc.interrupt("cascade")
                try:
                    yield child_proc
                except Interrupt:
                    pass
            return events

        p = sim.spawn(parent())
        sim.call_in(100, p.interrupt, "stop")
        sim.run()
        assert "parent-interrupted" in p.value

    def test_double_interrupt_delivers_both(self):
        sim = Simulator()
        caught = []

        def stubborn():
            for _ in range(2):
                try:
                    yield sim.timeout(10**9)
                except Interrupt as intr:
                    caught.append(intr.cause)
            return caught

        p = sim.spawn(stubborn())
        sim.call_in(10, p.interrupt, "first")
        sim.call_in(20, p.interrupt, "second")
        sim.run()
        assert p.value == ["first", "second"]


    def test_interrupt_while_parked_on_an_any_wait_resumes_exactly_once(self):
        sim = Simulator()
        a, b = sim.completion("a"), sim.completion("b")
        resumed = []

        def waiter():
            try:
                yield AnyWait([a, b], 10**6)
            except Interrupt as intr:
                resumed.append(("interrupt", intr.cause, sim.now))
            yield sim.timeout(50)
            resumed.append(("timeout", sim.now))

        p = sim.spawn(waiter())
        sim.run(until=10)
        assert a._callbacks and b._callbacks and not resumed
        p.interrupt("stop")
        # detached at once: nothing of the process stays on the events
        # it abandoned, so one firing later cannot resume it again, and
        # its deadline is withdrawn
        assert a._callbacks == [] and b._callbacks == []
        assert sim.run() == 60
        a.trigger("late")
        assert sim.run() == 60
        assert resumed == [("interrupt", "stop", 10), ("timeout", 60)]
        assert not p.alive and p.value is None

    def test_an_event_left_in_a_cascade_does_not_resume_the_waiter(self):
        # b's trigger resumes a process that triggers a: the waiter wins
        # with a while still planted in b's callback list in flight, and
        # that stale call must not resume it where it parks next.
        sim = Simulator()
        a, b, later = (sim.completion("a"), sim.completion("b"),
                       sim.completion("later"))
        got = []

        def trigger_a():
            yield b
            a.trigger("a")

        def waiter():
            got.append((yield AnyWait([a, b], None)))
            got.append((yield later))

        # parked on b ahead of the waiter, so it runs first in b's cascade
        sim.spawn(trigger_a())
        sim.spawn(waiter())
        sim.run()
        b.trigger("b")
        assert got == [(0, "a")]
        later.trigger("later")
        assert got == [(0, "a"), "later"]

    def test_an_interrupted_timeout_leaves_nothing_on_the_heap(self):
        # A sleep's heap entry is the process's own: the interrupt
        # withdraws it, so the clock does not run on to the sleep's end.
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupt as intr:
                return (intr.cause, sim.now)

        p = sim.spawn(sleeper())
        sim.call_in(10, p.interrupt, "stop")
        sim.run(until=10)
        assert p.value == ("stop", 10)
        assert [entry for entry in sim._heap if entry[2] is not None] == []
        assert sim.run() == 10

    def test_interrupt_before_the_first_step_fails_the_process_with_it(self):
        # The throw lands on the unstarted generator: its body never
        # runs, joiners see the Interrupt, and an unjoined one is not a
        # crash that surfaces from run().
        sim = Simulator()
        started = []

        def never_starts():
            started.append(True)
            yield sim.timeout(1)

        def joiner(proc):
            try:
                yield proc
            except Interrupt as intr:
                return ("joined an interrupted process", intr.cause)

        joined, unjoined = sim.spawn(never_starts()), sim.spawn(never_starts())
        joined.interrupt("early")
        unjoined.interrupt("early too")
        join = sim.spawn(joiner(joined))
        assert sim.run() == 0
        assert not started
        assert join.value == ("joined an interrupted process", "early")
        for proc, cause in ((joined, "early"), (unjoined, "early too")):
            assert not proc.alive
            with pytest.raises(Interrupt) as caught:
                _ = proc.value
            assert caught.value.cause == cause


class TestCompletionOrdering:
    def test_any_wait_with_pretriggered_event(self):
        sim = Simulator()
        instant = sim.completion()
        instant.trigger("now")
        later = sim.completion("later")
        sim.call_in(1000, later.trigger, "late")

        def waiter():
            index, value = yield AnyWait([later, instant], 10**6)
            return index, value

        p = sim.spawn(waiter())
        sim.run(until=0)
        assert p.value == (1, "now")
        # won at the yield: nothing planted, no deadline scheduled
        assert later._callbacks == []
        assert sim.run() == 1000

    def test_any_wait_failure_propagates(self):
        sim = Simulator()
        doomed = sim.completion()

        def waiter():
            try:
                yield AnyWait([doomed], 10**6)
            except RuntimeError as err:
                return "caught:%s" % err

        p = sim.spawn(waiter())
        sim.call_in(10, doomed.fail, RuntimeError("bad"))
        assert sim.run() == 10
        assert p.value == "caught:bad"

    def test_callbacks_on_failed_completion(self):
        sim = Simulator()
        done = sim.completion()
        done.fail(ValueError("broken"))
        assert done.triggered
        with pytest.raises(ValueError):
            _ = done.value

    def test_every_waiter_on_a_fired_completion_resumes_at_its_yield(self):
        # Done before anyone waits: each waiter has its value in the
        # instant it yields, and none plants a callback to be called.
        sim = Simulator()
        done = sim.completion()
        done.trigger(7)

        def waiter(delay):
            yield sim.timeout(delay)
            return ((yield done), sim.now)

        waiters = [sim.spawn(waiter(delay)) for delay in (0, 5)]
        assert sim.run() == 5
        assert [p.value for p in waiters] == [(7, 0), (7, 5)]
        assert done._callbacks == []

    def test_yielding_an_unheard_failure_raises_it_at_the_yield(self):
        # A failure nobody waited on is no error of its own: it is raised
        # in the first process that yields the completion, in that instant.
        sim = Simulator()
        done = sim.completion()
        done.fail(ValueError("nobody listened"))

        def waiter():
            yield sim.timeout(3)
            try:
                yield done
            except ValueError as err:
                return (str(err), sim.now)

        p = sim.spawn(waiter())
        assert sim.run() == 3
        assert p.value == ("nobody listened", 3)
        assert done._callbacks == []


class TestSchedulingEdges:
    def test_cannot_schedule_into_the_past(self):
        sim = Simulator()
        sim.call_in(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim._schedule_at(50, lambda: None)

    def test_peek_reports_next_event(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.call_in(250, lambda: None)
        assert sim.peek() == 250
