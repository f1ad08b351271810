"""Regression tests for the wait-path bugfixes.

Four distinct defects, each pinned here:

1. ``wait_all`` double-counted ``WAIT_TIMEOUTS`` (the inner ``wait_any``
   counted before raising, then the outer ``except`` counted again);
2. a ``wait_any`` that won before its deadline left the deadline's
   entry on the simulator heap and stale callbacks on the losing
   tokens' completions - unbounded growth under a server doing millions
   of timed waits;
3. ``wait_all`` with an already-exhausted budget re-subscribed to every
   remaining completion with a zero-ns timer race instead of raising
   ``DemiTimeout`` immediately;
4. an interrupted timed wait left its deadline on the heap, so a drained
   run moved the clock to a deadline nobody waited for any more.
"""

from repro.core.api import LibOS
from repro.core.types import DemiTimeout, OP_POP, QResult
from repro.sim.engine import Interrupt
from repro.telemetry import names
from repro.testbed import World

#: what every wait charges its core on the way out
DISPATCH_NS = World().costs.wait_dispatch_ns


def make():
    w = World()
    libos = LibOS(w.add_host("h"), "qt")
    return w.sim, w.tracer, libos


def live_entries(sim):
    """The heap entries that will still run: not tombstoned."""
    return [entry for entry in sim._heap if entry[2] is not None]


class TestWaitTimeoutsCountedOnce:
    def test_wait_all_timeout_counts_exactly_once(self):
        sim, tracer, libos = make()
        t1, _ = libos.qtokens.create()
        t2, _ = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_all([t1, t2], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1

    def test_wait_all_partial_progress_still_counts_once(self):
        sim, tracer, libos = make()
        t1, _ = libos.qtokens.create()
        t2, _ = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_all([t1, t2], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.call_in(100, libos.qtokens.complete, t1, QResult(OP_POP, 1))
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1

    def test_wait_any_timeout_counts_exactly_once(self):
        sim, tracer, libos = make()
        token, _ = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_any([token], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1


class TestTimedWaitsStayBounded:
    N_WAITS = 10_000

    def test_heap_and_callbacks_bounded_across_10k_timed_waits(self):
        """A won timed wait must withdraw its deadline and its callbacks.

        ``idle`` is a long-lived token (think: the accept queue of a
        server) that loses every round; the winning token is fresh each
        round.  Before the fix, every round left one deadline on the
        heap (1 ms out, rounds 110 ns apart -> ~9k live entries) and one
        stale callback on ``idle``'s completion.
        """
        sim, tracer, libos = make()
        table = libos.qtokens
        idle, idle_done = table.create()
        heap_sizes = []
        cb_sizes = []

        def waiter():
            for i in range(self.N_WAITS):
                token, _ = table.create()
                sim.call_in(10, table.complete, token,
                            QResult(OP_POP, 1, nbytes=i))
                index, result = yield from libos.wait_any(
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
        # 10k waits or their thousands of overlapping deadlines).
        assert max(heap_sizes) <= 128
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) in (None, 0)

    def test_withdrawn_deadline_never_fires(self):
        sim, _tracer, libos = make()
        token, _ = libos.qtokens.create()

        def waiter():
            index, _ = yield from libos.wait_any([token], timeout_ns=500)
            return index

        p = sim.spawn(waiter())
        sim.call_in(100, libos.qtokens.complete, token, QResult(OP_POP, 1))
        end = sim.run()
        assert p.value == 0
        # Nothing kept the clock running to the withdrawn 500 ns mark.
        assert end == 100 + DISPATCH_NS


class TestTheWaitLeavesNothingBehind:
    def test_an_interrupted_timed_wait_withdraws_its_deadline(self):
        sim, tracer, libos = make()
        token, done = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_any([token], timeout_ns=10**6)
            except Interrupt:
                return sim.now

        p = sim.spawn(waiter())
        sim.run(until=10)
        p.interrupt("stop")
        assert live_entries(sim) != []  # the interrupt's delivery
        sim.run(until=10)
        assert p.value == 10
        assert live_entries(sim) == [] and done._callbacks == []
        # A drained run ends where the work did, not at the deadline.
        assert sim.run() == 10
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) in (None, 0)

    def test_a_wait_won_before_its_deadline_leaves_the_heap_empty(self):
        sim, _tracer, libos = make()
        token, _ = libos.qtokens.create()
        heaps = []

        def waiter():
            yield from libos.wait_any([token], timeout_ns=10**6)
            heaps.append(live_entries(sim))

        sim.spawn(waiter())
        sim.call_in(100, libos.qtokens.complete, token, QResult(OP_POP, 1))
        assert sim.run() == 100 + DISPATCH_NS
        assert heaps == [[]] and sim._heap == []

    def test_a_fired_deadline_leaves_no_callback_on_the_token(self):
        sim, _tracer, libos = make()
        token, done = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_any([token], timeout_ns=1000)
            except DemiTimeout:
                return done._callbacks[:]

        p = sim.spawn(waiter())
        assert sim.run() == 1000
        assert p.value == [] and done._callbacks == []
        # the token is still waitable, and a late result wakes nobody
        libos.qtokens.complete(token, QResult(OP_POP, 1))
        assert sim.run() == 1000


class TestExhaustedBudgetRaisesImmediately:
    def test_deadline_hit_between_rounds_raises_without_resubscribe(self):
        """t1 completes exactly at the deadline; the next round must not
        re-subscribe to t2 with a zero-ns timer race."""
        sim, tracer, libos = make()
        t1, _ = libos.qtokens.create()
        t2, t2_done = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_all([t1, t2], timeout_ns=100)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.call_in(100, libos.qtokens.complete, t1, QResult(OP_POP, 1))
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
        sim, tracer, libos = make()
        token, done = libos.qtokens.create()

        def waiter():
            try:
                yield from libos.wait_all([token], timeout_ns=0)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert len(done._callbacks) == 0
        assert tracer.get("qt." + names.WAIT_TIMEOUTS) == 1
