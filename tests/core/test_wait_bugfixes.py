"""Regression tests for the wait-path bugfixes.

Three distinct defects, each pinned here:

1. ``wait_all`` double-counted ``WAIT_TIMEOUTS`` (the inner ``wait_any``
   counted before raising, then the outer ``except`` counted again);
2. a ``wait_any`` that won before its deadline left the ``Timeout``
   entry on the simulator heap and stale ``_MultiWait`` callbacks on the
   losing tokens' completions - unbounded growth under a server doing
   millions of timed waits;
3. ``wait_all`` with an already-exhausted budget re-subscribed to every
   remaining completion with a zero-ns timer race instead of raising
   ``DemiTimeout`` immediately.
"""

from repro.core.types import DemiTimeout, OP_POP, QResult
from repro.core.wait import QTokenTable
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.telemetry import names


def make():
    sim = Simulator()
    tracer = Tracer()
    return sim, tracer, QTokenTable(sim, tracer, "qt")


class TestWaitTimeoutsCountedOnce:
    def test_wait_all_timeout_counts_exactly_once(self):
        sim, tracer, table = make()
        t1, _ = table.create()
        t2, _ = table.create()

        def waiter():
            try:
                yield from table.wait_all([t1, t2], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1

    def test_wait_all_partial_progress_still_counts_once(self):
        sim, tracer, table = make()
        t1, _ = table.create()
        t2, _ = table.create()

        def waiter():
            try:
                yield from table.wait_all([t1, t2], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.call_in(100, table.complete, t1, QResult(OP_POP, 1))
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1

    def test_wait_any_timeout_counts_exactly_once(self):
        sim, tracer, table = make()
        token, _ = table.create()

        def waiter():
            try:
                yield from table.wait_any([token], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1


class TestTimedWaitsStayBounded:
    N_WAITS = 10_000

    def test_heap_and_callbacks_bounded_across_10k_timed_waits(self):
        """A won timed wait must withdraw its timer and its callbacks.

        ``idle`` is a long-lived token (think: the accept queue of a
        server) that loses every round; the winning token is fresh each
        round.  Before the fix, every round left one Timeout on the
        heap (deadline 1 ms out, rounds 10 ns apart -> ~100k live
        entries) and one stale callback on ``idle``'s completion.
        """
        sim, tracer, table = make()
        idle, idle_done = table.create()
        heap_sizes = []
        cb_sizes = []

        def waiter():
            for i in range(self.N_WAITS):
                token, _ = table.create()
                sim.call_in(10, table.complete, token,
                            QResult(OP_POP, 1, nbytes=i))
                index, result = yield from table.wait_any(
                    [idle, token], timeout_ns=1_000_000)
                assert index == 1 and result.nbytes == i
                heap_sizes.append(len(sim._heap))
                cb_sizes.append(len(idle_done._callbacks))

        sim.spawn(waiter())
        sim.run()
        # The losing token keeps zero stale callbacks between rounds...
        assert max(cb_sizes) == 0
        # ...and the heap stays at O(live entries), not O(waits issued)
        # (the ceiling is the tombstone-compaction threshold, not the
        # 10k waits or their ~100k overlapping deadlines).
        assert max(heap_sizes) <= 128
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) in (None, 0)

    def test_cancelled_timer_never_fires(self):
        sim, _tracer, table = make()
        token, _ = table.create()

        def waiter():
            index, _ = yield from table.wait_any([token], timeout_ns=500)
            return index

        p = sim.spawn(waiter())
        sim.call_in(100, table.complete, token, QResult(OP_POP, 1))
        end = sim.run()
        assert p.value == 0
        # Nothing kept the clock running to the cancelled 500 ns mark.
        assert end == 100


class TestExhaustedBudgetRaisesImmediately:
    def test_deadline_hit_between_rounds_raises_without_resubscribe(self):
        """t1 completes exactly at the deadline; the next round must not
        re-subscribe to t2 with a zero-ns timer race."""
        sim, tracer, table = make()
        t1, _ = table.create()
        t2, t2_done = table.create()

        def waiter():
            try:
                yield from table.wait_all([t1, t2], timeout_ns=100)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.call_in(100, table.complete, t1, QResult(OP_POP, 1))
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert p.value.timeout_ns == 100
        # Raised at the deadline itself, not after an extra event-loop
        # round trip through a zero-ns timeout.
        assert sim.now == 100
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1
        # The losing token was never re-subscribed to.
        assert len(t2_done._callbacks) == 0

    def test_zero_timeout_raises_before_subscribing(self):
        sim, tracer, table = make()
        token, done = table.create()

        def waiter():
            try:
                yield from table.wait_all([token], timeout_ns=0)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert len(done._callbacks) == 0
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1
