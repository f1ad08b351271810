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
