"""Tests for the Demikernel API over memory queues (the queue() syscall)."""

import pytest

from repro.core.api import LibOS
from repro.core.types import DemiError

from ..conftest import World


def make_libos(cores=4):
    w = World()
    host = w.add_host("h", cores=cores)
    libos = LibOS(host, "demi")
    return w, libos


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestPushPop:
    def test_blocking_push_then_pop(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            sga = libos.sga_alloc(b"element")
            yield from libos.blocking_push(qd, sga)
            result = yield from libos.blocking_pop(qd)
            return result

        result = run(w, proc())
        assert result.error is None
        assert result.sga.tobytes() == b"element"

    def test_pop_before_push_completes_on_arrival(self):
        w, libos = make_libos()
        qd = libos.queue()
        order = []

        def popper():
            result = yield from libos.blocking_pop(qd)
            order.append(("popped", result.sga.tobytes(), w.sim.now))

        def pusher():
            yield w.sim.timeout(5000)
            order.append(("pushing", w.sim.now))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"late"))

        w.sim.spawn(popper())
        w.sim.spawn(pusher())
        w.run()
        assert order[0][0] == "pushing"
        assert order[1][:2] == ("popped", b"late")

    def test_elements_stay_atomic_and_fifo(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            for payload in (b"first", b"second", b"third"):
                yield from libos.blocking_push(qd, libos.sga_alloc(payload))
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(qd)
                out.append(result.sga.tobytes())
            return out

        assert run(w, proc()) == [b"first", b"second", b"third"]

    def test_multi_segment_sga_pops_as_one_element(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            from repro.core.types import Sga, SgaSegment
            a = libos.mm.alloc(4).fill(b"HEAD")
            b = libos.mm.alloc(4).fill(b"BODY")
            sga = Sga([SgaSegment(a), SgaSegment(b)])
            yield from libos.blocking_push(qd, sga)
            result = yield from libos.blocking_pop(qd)
            return result

        result = run(w, proc())
        assert result.sga.tobytes() == b"HEADBODY"
        assert result.nbytes == 8

    def test_push_empty_sga_rejected(self):
        w, libos = make_libos()
        qd = libos.queue()
        from repro.core.types import Sga
        with pytest.raises(DemiError):
            libos.push(qd, Sga([]))

    def test_push_bad_qd_rejected(self):
        _, libos = make_libos()
        with pytest.raises(DemiError):
            libos.push(99, None)

    def test_bounded_queue_rejects_overflow(self):
        w, libos = make_libos()
        qd = libos.queue(capacity=2)

        def proc():
            results = []
            for i in range(3):
                r = yield from libos.blocking_push(qd, libos.sga_alloc(b"%d" % i))
                results.append(r.error)
            return results

        assert run(w, proc()) == [None, None, "full"]


class TestWaitSemantics:
    def test_wait_any_over_two_queues(self):
        w, libos = make_libos()
        q1, q2 = libos.queue(), libos.queue()

        def proc():
            t1 = libos.pop(q1)
            t2 = libos.pop(q2)
            w.sim.call_in(1000, lambda: libos.push(q2, libos.sga_alloc(b"two")))
            index, result = yield from libos.wait_any([t1, t2])
            return index, result.sga.tobytes()

        assert run(w, proc()) == (1, b"two")

    def test_wait_any_wakes_exactly_one_of_n_workers(self):
        """The C4 property at the API level: distinct tokens per worker."""
        w, libos = make_libos(cores=8)
        qd = libos.queue()
        woken = []

        def worker(name):
            result = yield from libos.blocking_pop(qd)
            woken.append((name, result.sga.tobytes()))

        for i in range(4):
            w.sim.spawn(worker(i))
        w.sim.call_in(1000, lambda: libos.push(qd, libos.sga_alloc(b"one")))
        w.run()
        # One element -> exactly one worker ran; three still blocked.
        assert len(woken) == 1

    def test_wait_all_over_pushes(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            tokens = [libos.push(qd, libos.sga_alloc(b"%d" % i))
                      for i in range(5)]
            results = yield from libos.wait_all(tokens)
            return [r.error is None for r in results]

        assert run(w, proc()) == [True] * 5

    def test_wait_returns_data_no_second_call(self):
        """wait() itself delivers the sga - the paper's anti-epoll point."""
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            token = libos.pop(qd)
            libos.push(qd, libos.sga_alloc(b"payload"))
            result = yield from libos.wait(token)
            return result.sga.tobytes()

        assert run(w, proc()) == b"payload"


class TestClose:
    def test_close_fails_pending_pops(self):
        w, libos = make_libos()
        qd = libos.queue()

        def popper():
            result = yield from libos.blocking_pop(qd)
            return result.error

        def closer():
            yield w.sim.timeout(1000)
            yield from libos.close(qd)

        p = w.sim.spawn(popper())
        w.sim.spawn(closer())
        w.run()
        assert p.value == "closed"

    def test_operations_after_close_rejected(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            yield from libos.close(qd)
            with pytest.raises(DemiError):
                libos.pop(qd)
            return "checked"

        assert run(w, proc()) == "checked"


class TestUnsupportedControlPath:
    def test_base_libos_has_no_devices(self):
        w, libos = make_libos()

        def proc():
            with pytest.raises(DemiError):
                yield from libos.socket()
            with pytest.raises(DemiError):
                yield from libos.open("/x")
            return "checked"

        assert run(w, proc()) == "checked"


class TestAccounting:
    def test_push_pop_charge_cpu(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            yield from libos.blocking_push(qd, libos.sga_alloc(b"x"))
            yield from libos.blocking_pop(qd)

        run(w, proc())
        c = libos.costs
        minimum = (c.libos_push_ns + c.libos_pop_ns + 2 * c.qtoken_ns
                   + 2 * c.wait_dispatch_ns)
        assert libos.core.busy_ns >= minimum

    def test_counters_track_operations(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            yield from libos.blocking_push(qd, libos.sga_alloc(b"x"))
            yield from libos.blocking_pop(qd)

        run(w, proc())
        assert w.tracer.get("demi.pushes") == 1
        assert w.tracer.get("demi.pops") == 1
