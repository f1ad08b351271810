"""Tests for sga types and the qtoken wait scheduler."""

import pytest

from repro.core.api import LibOS
from repro.core.types import DemiError, DemiTimeout, Sga, SgaSegment
from repro.core.wait import QTokenTable
from repro.core.types import OP_POP, QResult
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

from ..conftest import World


class TestSga:
    def _mm(self):
        w = World()
        return w.add_host("h").mm

    def test_from_bytes_roundtrip(self):
        mm = self._mm()
        sga = Sga.from_bytes(mm, b"atomic data unit")
        assert sga.tobytes() == b"atomic data unit"
        assert sga.nbytes == 16
        assert sga.nsegments == 1

    def test_empty_bytes_rejected(self):
        mm = self._mm()
        with pytest.raises(DemiError):
            Sga.from_bytes(mm, b"")

    def test_multi_segment_gather(self):
        mm = self._mm()
        a = mm.alloc(8).fill(b"01234567")
        b = mm.alloc(8).fill(b"abcdefgh")
        sga = Sga([SgaSegment(a, 2, 4), SgaSegment(b, 0, 3)])
        assert sga.tobytes() == b"2345abc"
        assert sga.nbytes == 7
        assert sga.nsegments == 2

    def test_segment_bounds_checked(self):
        mm = self._mm()
        buf = mm.alloc(8)
        with pytest.raises(DemiError):
            SgaSegment(buf, 4, 8)

    def test_dma_ranges_follow_offsets(self):
        mm = self._mm()
        buf = mm.alloc(64)
        sga = Sga([SgaSegment(buf, 16, 8)])
        assert sga.dma_ranges() == [(buf.addr + 16, 8)]

    def test_hold_release_tracks_device_refs(self):
        mm = self._mm()
        buf = mm.alloc(16)
        sga = Sga.from_buffer(buf)
        sga.hold_all()
        assert buf.in_use
        sga.release_all()
        assert not buf.in_use


class TestQTokenTable:
    def make(self):
        sim = Simulator()
        return sim, QTokenTable(sim, Tracer(), "t")

    def make_libos(self):
        """``(sim, table, libos)``: the multi-token waits are the
        libOS's calls, over its table."""
        w = World()
        libos = LibOS(w.add_host("h"), "t")
        return w.sim, libos.qtokens, libos

    def test_tokens_are_unique(self):
        _sim, table = self.make()
        t1, _ = table.create()
        t2, _ = table.create()
        assert t1 != t2

    def test_wait_returns_result(self):
        sim, table = self.make()
        token, _ = table.create()

        def waiter():
            result = yield from table.wait(token)
            return result

        p = sim.spawn(waiter())
        sim.call_in(100, table.complete, token,
                    QResult(OP_POP, 1, nbytes=5))
        sim.run()
        assert p.value.nbytes == 5
        assert len(table._pending) == 0

    def test_wait_unknown_token_raises(self):
        _sim, table = self.make()
        with pytest.raises(DemiError):
            table.completion_of(999)

    def test_complete_unknown_token_raises(self):
        _sim, table = self.make()
        with pytest.raises(DemiError):
            table.complete(42, QResult(OP_POP, 1))

    def test_wait_any_returns_first(self):
        sim, table, libos = self.make_libos()
        t1, _ = table.create()
        t2, _ = table.create()

        def waiter():
            index, result = yield from libos.wait_any([t1, t2])
            return index, result.nbytes

        p = sim.spawn(waiter())
        sim.call_in(50, table.complete, t2, QResult(OP_POP, 1, nbytes=2))
        sim.call_in(500, table.complete, t1, QResult(OP_POP, 1, nbytes=1))
        sim.run()
        assert p.value == (1, 2)
        # t1 is still outstanding (completed later, never waited).
        assert len(table._pending) in (0, 1)

    def test_wait_any_timeout(self):
        sim, table, libos = self.make_libos()
        token, _ = table.create()

        def waiter():
            try:
                yield from libos.wait_any([token], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert p.value.timeout_ns == 1000
        assert p.value.tokens == (token,)
        # The token survives a timeout and can be waited again.
        assert len(table._pending) == 1

    def test_wait_any_empty_rejected(self):
        sim, table, libos = self.make_libos()

        def waiter():
            yield from libos.wait_any([])

        p = sim.spawn(waiter())
        with pytest.raises(DemiError):
            sim.run()

    def test_wait_all_collects_every_result(self):
        sim, table, libos = self.make_libos()
        tokens = []
        for i in range(3):
            t, _ = table.create()
            tokens.append(t)

        def waiter():
            results = yield from libos.wait_all(tokens)
            return [r.nbytes for r in results]

        p = sim.spawn(waiter())
        # Complete out of order.
        sim.call_in(30, table.complete, tokens[2], QResult(OP_POP, 1, nbytes=2))
        sim.call_in(10, table.complete, tokens[0], QResult(OP_POP, 1, nbytes=0))
        sim.call_in(20, table.complete, tokens[1], QResult(OP_POP, 1, nbytes=1))
        sim.run()
        assert p.value == [0, 1, 2]

    def test_wait_all_timeout_raises(self):
        sim, table, libos = self.make_libos()
        t1, _ = table.create()
        t2, _ = table.create()

        def waiter():
            try:
                yield from libos.wait_all([t1, t2], timeout_ns=1000)
            except DemiTimeout as err:
                return err

        p = sim.spawn(waiter())
        sim.call_in(100, table.complete, t1, QResult(OP_POP, 1))
        sim.run()
        assert isinstance(p.value, DemiTimeout)
        assert p.value.timeout_ns == 1000

    def test_wait_all_empty_is_instant(self):
        sim, table, libos = self.make_libos()

        def waiter():
            return (yield from libos.wait_all([]))

        p = sim.spawn(waiter())
        sim.run()
        assert p.value == []

    def test_exactly_one_waiter_per_completion(self):
        """Two waiters on two distinct tokens: one completion wakes one."""
        sim, table = self.make()
        t1, _ = table.create()
        t2, _ = table.create()
        woken = []

        def waiter(name, token):
            yield from table.wait(token)
            woken.append((name, sim.now))

        sim.spawn(waiter("a", t1))
        sim.spawn(waiter("b", t2))
        sim.call_in(100, table.complete, t1, QResult(OP_POP, 1))
        sim.run(until=10_000)
        assert [w[0] for w in woken] == ["a"]  # b still asleep
