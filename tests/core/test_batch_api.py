"""Edge cases of wait_any_n, the batch drain over singleton pops.

One wait drains every token ready at the wake-up instant (one
``wait_dispatch`` charge for the whole batch) but must keep the
singleton wait's semantics exactly: same errors, same exactly-one-waiter
guarantee, same token lifecycle.
"""

import pytest

from repro.core.api import LibOS
from repro.core.types import DemiError, DemiTimeout
from repro.testbed import World


def fresh_libos():
    w = World()
    host = w.add_host("h")
    return w, LibOS(host, "demi")


def run_proc(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestSingletonEdges:
    """The errors and token lifecycle of the calls wait_any_n drains."""

    def test_push_of_empty_sga_rejected(self):
        _w, libos = fresh_libos()
        qd = libos.queue()
        with pytest.raises(DemiError):
            libos.push(qd, libos.sga_alloc(b""))
        assert libos.qtokens.created == 0

    def test_push_to_unknown_qd_rejected(self):
        _w, libos = fresh_libos()
        with pytest.raises(DemiError, match="bad queue descriptor"):
            libos.push(9999, libos.sga_alloc(b"x"))

    def test_pop_on_unknown_qd_rejected(self):
        _w, libos = fresh_libos()
        with pytest.raises(DemiError, match="bad queue descriptor"):
            libos.pop(9999)

    def test_push_to_closed_qd_rejected(self):
        w, libos = fresh_libos()
        qd = libos.queue()
        run_proc(w, libos.close(qd))
        with pytest.raises(DemiError, match="is closed"):
            libos.push(qd, libos.sga_alloc(b"x"))

    def test_pop_tokens_cancellable(self):
        _w, libos = fresh_libos()
        qds = [libos.queue() for _ in range(3)]
        tokens = [libos.pop(qd) for qd in qds]
        for token in tokens:
            libos.cancel(token)
        t = libos.qtokens
        assert t.cancelled == 3
        assert t.created == t.completed + t.cancelled + t.in_flight

    def test_cancelled_pop_leaves_its_element_queued(self):
        w, libos = fresh_libos()
        qd = libos.queue()

        def proc():
            libos.cancel(libos.pop(qd))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"kept"))
            result = yield from libos.blocking_pop(qd)
            return result.sga.tobytes()

        assert run_proc(w, proc()) == b"kept"


class TestWaitAnyN:
    def test_returns_all_ready_sorted_by_index(self):
        w, libos = fresh_libos()
        qds = [libos.queue() for _ in range(4)]

        def proc():
            # Fill queues 3, 1, 0 before popping; queue 2 stays empty.
            for i in (3, 1, 0):
                yield from libos.blocking_push(
                    qds[i], libos.sga_alloc(b"q%d" % i))
            tokens = [libos.pop(qd) for qd in qds]
            ready = yield from libos.wait_any_n(tokens)
            return ready

        ready = run_proc(w, proc())
        assert [i for i, _ in ready] == [0, 1, 3]
        assert [r.sga.tobytes() for _, r in ready] == [b"q0", b"q1", b"q3"]

    def test_undrained_tokens_stay_valid(self):
        w, libos = fresh_libos()
        qds = [libos.queue() for _ in range(4)]

        def proc():
            for i in (0, 2):
                yield from libos.blocking_push(
                    qds[i], libos.sga_alloc(b"q%d" % i))
            tokens = [libos.pop(qd) for qd in qds]
            first = yield from libos.wait_any_n(tokens)
            assert [i for i, _ in first] == [0, 2]
            # The undrained tokens are still waitable afterwards.
            for i in (1, 3):
                yield from libos.blocking_push(
                    qds[i], libos.sga_alloc(b"q%d" % i))
            results = yield from libos.wait_all([tokens[1], tokens[3]])
            return [r.sga.tobytes() for r in results]

        assert run_proc(w, proc()) == [b"q1", b"q3"]

    def test_returned_tokens_are_retired(self):
        w, libos = fresh_libos()
        qd = libos.queue()

        def proc():
            yield from libos.blocking_push(qd, libos.sga_alloc(b"x"))
            tokens = [libos.pop(qd)]
            yield from libos.wait_any_n(tokens)
            with pytest.raises(DemiError):
                yield from libos.wait(tokens[0])
            return True

        assert run_proc(w, proc()) is True

    def test_empty_token_list_rejected(self):
        w, libos = fresh_libos()

        def proc():
            with pytest.raises(DemiError):
                yield from libos.wait_any_n([])
            return True

        assert run_proc(w, proc()) is True

    def test_timeout_raises_and_tokens_survive(self):
        w, libos = fresh_libos()
        qd = libos.queue()

        def proc():
            tokens = [libos.pop(qd)]
            with pytest.raises(DemiTimeout):
                yield from libos.wait_any_n(tokens, timeout_ns=10_000)
            yield from libos.blocking_push(qd, libos.sga_alloc(b"late"))
            result = yield from libos.wait(tokens[0])
            return result.sga.tobytes()

        assert run_proc(w, proc()) == b"late"

    def test_batch_counters_account_for_the_drain(self):
        w, libos = fresh_libos()
        qds = [libos.queue() for _ in range(3)]

        def proc():
            for i in range(3):
                yield from libos.blocking_push(
                    qds[i], libos.sga_alloc(b"q%d" % i))
            tokens = [libos.pop(qd) for qd in qds]
            yield from libos.wait_any_n(tokens)

        run_proc(w, proc())
        assert w.tracer.get("demi.batch_waits") == 1
        assert w.tracer.get("demi.batch_wait_completions") == 3

    def test_one_dispatch_charge_covers_the_drain(self):
        # Three ready tokens drained by one wait_any_n cost the core less
        # than three singleton waits: wait_dispatch is paid once.
        def busy_after(drain):
            w, libos = fresh_libos()
            qds = [libos.queue() for _ in range(3)]

            def proc():
                for i, qd in enumerate(qds):
                    yield from libos.blocking_push(
                        qd, libos.sga_alloc(b"q%d" % i))
                before = libos.core.busy_ns
                tokens = [libos.pop(qd) for qd in qds]
                yield from drain(libos, tokens)
                return libos.core.busy_ns - before

            return run_proc(w, proc())

        def singly(libos, tokens):
            for token in tokens:
                yield from libos.wait(token)

        def batched(libos, tokens):
            ready = yield from libos.wait_any_n(tokens)
            assert len(ready) == 3

        assert busy_after(batched) < busy_after(singly)

    def test_blocks_until_the_first_completion(self):
        w, libos = fresh_libos()
        qds = [libos.queue() for _ in range(3)]

        def late_push():
            yield w.sim.timeout(5_000)
            yield from libos.blocking_push(qds[2], libos.sga_alloc(b"late"))

        def proc():
            tokens = [libos.pop(qd) for qd in qds]
            w.sim.spawn(late_push())
            ready = yield from libos.wait_any_n(tokens)
            return w.sim.now, ready

        now, ready = run_proc(w, proc())
        assert now >= 5_000
        assert [(i, r.sga.tobytes()) for i, r in ready] == [(2, b"late")]
