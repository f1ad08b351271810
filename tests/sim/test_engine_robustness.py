"""Robustness tests for the engine: nesting, cascades, odd orderings."""

import pytest

from repro.sim.engine import (
    Interrupt,
    SimulationError,
    Simulator,
    any_of,
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


    def test_interrupt_while_parked_on_any_of_resumes_exactly_once(self):
        sim = Simulator()
        a, b = sim.completion("a"), sim.completion("b")
        waits, resumed = [], []

        def waiter():
            waits.append(any_of(sim, [a, b]))
            try:
                yield waits[0]
            except Interrupt as intr:
                resumed.append(("interrupt", intr.cause, sim.now))
            yield sim.timeout(50)
            resumed.append(("timeout", sim.now))

        p = sim.spawn(waiter())
        sim.run(until=10)
        assert waits[0]._callbacks and not resumed
        p.interrupt("stop")
        # detached at once: nothing of the process stays on the wait it
        # abandoned, so the wait resolving later cannot resume it again
        assert waits[0]._callbacks == []
        sim.run()
        a.trigger("late")
        sim.run()
        assert waits[0].value == (0, "late")
        assert resumed == [("interrupt", "stop", 10), ("timeout", 60)]
        assert not p.alive and p.value is None

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
    def test_any_of_with_pretriggered_event(self):
        sim = Simulator()
        instant = sim.completion()
        instant.trigger("now")
        later = sim.timeout(1000, "later")

        def waiter():
            index, value = yield any_of(sim, [later, instant])
            return index, value

        p = sim.spawn(waiter())
        sim.run()
        assert p.value == (1, "now")

    def test_any_of_failure_propagates(self):
        sim = Simulator()
        doomed = sim.completion()

        def waiter():
            try:
                yield any_of(sim, [doomed, sim.timeout(10**6)])
            except RuntimeError as err:
                return "caught:%s" % err

        p = sim.spawn(waiter())
        sim.call_in(10, doomed.fail, RuntimeError("bad"))
        sim.run()
        assert p.value == "caught:bad"

    def test_callbacks_on_failed_completion(self):
        sim = Simulator()
        done = sim.completion()
        done.fail(ValueError("broken"))
        assert done.triggered
        with pytest.raises(ValueError):
            _ = done.value

    def test_subscribe_after_trigger_runs_immediately(self):
        sim = Simulator()
        done = sim.completion()
        done.trigger(7)
        seen = []
        done.subscribe(lambda c: seen.append(c.value))
        assert seen == [7]

    def test_subscribe_after_an_unheard_failure_runs_immediately(self):
        sim = Simulator()
        done = sim.completion()
        done.fail(ValueError("nobody listened"))
        seen = []
        done.subscribe(lambda c: seen.append((type(c._exc), c._callbacks)))
        assert seen == [(ValueError, [])]


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
