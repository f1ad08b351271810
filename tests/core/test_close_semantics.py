"""Regression tests for close() ordering with in-flight pops.

The bug: ``LibOS.close()`` removed the qd from the descriptor table
before retiring outstanding qtokens, so a pop waiter woken with the
``'closed'`` error would trip over "bad queue descriptor" the moment its
cleanup path called ``close(qd)`` again.  Pops must observe 'closed'
while the descriptor is still resolvable, and a re-close of an
already-closed qd must be a charged no-op.
"""

import pytest

from repro.core.api import LibOS
from repro.core.types import DemiError, DemiTimeout
from repro.kernelos.reclaim import reclaim_process

from ..conftest import World


def make_libos():
    w = World()
    host = w.add_host("h", cores=4)
    return w, LibOS(host, "demi")


class TestCloseWithPendingPop:
    def test_pending_pop_observes_closed(self):
        w, libos = make_libos()
        qd = libos.queue()
        seen = []

        def popper():
            result = yield from libos.blocking_pop(qd)
            seen.append(result)

        def closer():
            yield w.sim.timeout(1000)
            yield from libos.close(qd)

        w.sim.spawn(popper())
        w.sim.spawn(closer())
        w.run()
        assert len(seen) == 1
        assert seen[0].error is not None
        assert seen[0].error == "closed"

    def test_waiter_cleanup_close_is_charged_noop(self):
        """The race the fix exists for: the woken waiter closes the qd too."""
        w, libos = make_libos()
        qd = libos.queue()
        done = []

        def popper():
            result = yield from libos.blocking_pop(qd)
            assert result.error == "closed"
            # Typical app cleanup: close whatever descriptor errored.
            yield from libos.close(qd)
            done.append(w.sim.now)

        def closer():
            yield w.sim.timeout(1000)
            yield from libos.close(qd)

        w.sim.spawn(popper())
        w.sim.spawn(closer())
        w.run()
        assert done, "pop waiter never finished its cleanup close"
        assert libos.tracer.counters["demi.ctrl.close"] == 1
        assert libos.tracer.counters["demi.ctrl.close_noop"] == 1

    def test_qtoken_retired_not_leaked(self):
        w, libos = make_libos()
        qd = libos.queue()
        token = libos.pop(qd)

        def closer():
            yield from libos.close(qd)
            result = yield from libos.wait(token)
            return result

        p = w.sim.spawn(closer())
        w.run()
        assert p.value.error == "closed"
        assert len(libos.qtokens._pending) == 0

    def test_lookup_after_close_says_closed(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            yield from libos.close(qd)

        w.sim.spawn(proc())
        w.run()
        with pytest.raises(DemiError, match="closed"):
            libos.queue_of(qd)
        # A never-allocated descriptor still reads as plain bad.
        with pytest.raises(DemiError, match="bad queue descriptor"):
            libos.queue_of(qd + 999)


class TestQdTable:
    """A qd is never reused, so the table alone tells a closed descriptor
    (one handed out, no longer open) from one never handed out."""

    @pytest.mark.parametrize("qd", [0, -1])
    def test_descriptors_below_the_first_are_bad(self, qd):
        _w, libos = make_libos()
        libos.queue()
        with pytest.raises(DemiError, match="bad queue descriptor"):
            libos.queue_of(qd)

    def test_next_descriptor_is_bad_until_handed_out(self):
        _w, libos = make_libos()
        qd = libos.queue()
        with pytest.raises(DemiError, match="bad queue descriptor"):
            libos.queue_of(qd + 1)
        assert libos.queue() == qd + 1
        assert libos.queue_of(qd + 1) is not None

    def test_close_of_a_never_handed_out_qd_raises(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            with pytest.raises(DemiError, match="bad queue descriptor"):
                yield from libos.close(qd + 1)
            with pytest.raises(DemiError, match="bad queue descriptor"):
                yield from libos.close(0)

        w.sim.spawn(proc())
        w.run()
        assert libos.tracer.counters["demi.ctrl.close_noop"] == 0
        assert libos.queue_of(qd) is not None

    def test_a_closed_qd_is_never_reused(self):
        w, libos = make_libos()
        first = libos.queue()

        def proc():
            yield from libos.close(first)

        w.sim.spawn(proc())
        w.run()
        second = libos.queue()
        assert second != first
        with pytest.raises(DemiError, match="is closed"):
            libos.queue_of(first)

    def test_reclaimed_qds_read_as_closed(self):
        w, libos = make_libos()
        qds = [libos.queue(), libos.queue()]
        reclaim_process(libos)
        assert libos.tracer.counters[
            "%s.reclaim.qds_closed" % libos.host.name] == 2

        def proc():
            for qd in qds:
                with pytest.raises(DemiError, match="is closed"):
                    libos.queue_of(qd)
                yield from libos.close(qd)  # a charged no-op, not an error

        w.sim.spawn(proc())
        w.run()
        assert libos.tracer.counters["demi.ctrl.close_noop"] == 2


class TestLegacyTimeoutShim:
    """A timeout is an exception, never an in-band sentinel; the shim
    that once offered the sentinels back (``legacy_timeout=True``) is
    gone, keyword and all."""

    def test_default_still_raises(self):
        w, libos = make_libos()
        qd = libos.queue()
        token = libos.pop(qd)

        def proc():
            with pytest.raises(DemiTimeout):
                yield from libos.wait_any([token], timeout_ns=1000)

        w.sim.spawn(proc())
        w.run()
