"""Property: a Catfish pop's lent slice reads its record until it is freed.

Over any interleaving of appends, fsyncs, pops, frees of popped
elements, and syncs that race a pop's read (the pop armed in the same
instant as the fsync that drops the span it reads from), every popped
slice still held reads exactly the record it was popped as, and once
everything is freed and the queue is closed the heap holds as many
buffers as it did before the first append.

Iteration count: ``FAULT_PROPERTY_EXAMPLES`` (default 50), shared with
the fault properties; CI's non-blocking chaos job raises it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ..conftest import make_spdk_libos
from .test_faults_property import EXAMPLES

#: a record within one block, one straddling a boundary, or many blocks
sizes = st.one_of(st.integers(1, 300), st.integers(3000, 5000),
                  st.integers(9000, 30_000))


class LentPopMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.w, self.libos = make_spdk_libos()
        #: one queue: what it appends, its pops read back in order
        self.qd = self.run(self.libos.creat("/log"))
        self.start = self.libos.mm.live_buffer_count
        #: every payload appended, in order; pops return them in turn
        self.records = []
        self.popped = 0
        #: (popped sga, the payload it was popped as), not yet freed
        self.held = []

    def run(self, gen):
        p = self.w.sim.spawn(gen)
        self.w.run()
        return p.value

    @rule(size=sizes, fill=st.integers(0, 255))
    def append(self, size, fill):
        payload = b"%d:" % len(self.records) + bytes([fill]) * size
        sga = self.libos.sga_alloc(payload)
        assert self.run(self.libos.blocking_push(self.qd, sga)).error is None
        self.libos.sga_free(sga)
        self.records.append(payload)

    @rule()
    def fsync(self):
        self.run(self.libos.fsync(self.qd))

    def _popped(self, result):
        assert result.error is None
        self.held.append((result.sga, self.records[self.popped]))
        self.popped += 1

    @precondition(lambda self: self.popped < len(self.records))
    @rule()
    def pop(self):
        self._popped(self.run(self.libos.blocking_pop(self.qd)))

    @precondition(lambda self: self.popped < len(self.records))
    @rule()
    def sync(self):
        """A pop whose read is in flight while an fsync drops the span."""
        libos = self.libos

        def both():
            token = libos.pop(self.qd)
            flusher = self.w.sim.spawn(libos.fsync(self.qd))
            result = yield from libos.wait(token)
            yield flusher
            return result

        self._popped(self.run(both()))

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def free(self, data):
        index = data.draw(st.integers(0, len(self.held) - 1))
        sga, _payload = self.held.pop(index)
        self.libos.sga_free(sga)

    @invariant()
    def every_held_slice_reads_its_record(self):
        for sga, payload in self.held:
            assert sga.tobytes() == payload

    def teardown(self):
        for sga, _payload in self.held:
            self.libos.sga_free(sga)
        self.run(self.libos.close(self.qd))
        assert self.libos.mm.live_buffer_count == self.start


LentPopMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, deadline=None,
    derandomize=True)
TestLentPopMachine = LentPopMachine.TestCase
