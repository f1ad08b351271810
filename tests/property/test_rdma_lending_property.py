"""Property: a Catmint receive pool is never lost, doubled or overrun.

Over any interleaving of pushes (either way), pops, holds, frees of
popped elements and a close on one connected Catmint pair, each side's
pool buffers are each in exactly one place - posted on the QP, or lent
(to the application, its queue, or a push echoing it) - so posted plus
lent is ``POOL_BUFFERS`` on each QP; credits never go negative; no send
meets an empty receive queue (an RNR NAK), a credit return included;
every element pops in the order it was pushed and every held slice reads
its message; and once everything is freed and closed both heaps hold
what they held before the connection.

Iteration count: ``FAULT_PROPERTY_EXAMPLES`` (default 50), shared with
the fault properties; CI's non-blocking chaos job raises it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.libos.rdma_libos import POOL_BUFFERS

from ..conftest import make_rdma_libos_pair
from .test_faults_property import EXAMPLES

SIDES = ("client", "server")


class RdmaLendingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.w, client, server = make_rdma_libos_pair()
        self.libos = {"client": client, "server": server}
        self.start = {side: libos.mm.live_buffer_count
                      for side, libos in self.libos.items()}
        self.qd = {}
        self.listen_qd = None
        self.run(self._connect())
        self.closed = False
        #: per receiving side: payloads pushed toward it, in order, and
        #: how many of them it popped
        self.sent = {side: [] for side in SIDES}
        self.popped = {side: 0 for side in SIDES}
        #: per side: (popped sga, the payload it was popped as)
        self.held = {side: [] for side in SIDES}
        #: one process per push
        self.pushes = []

    def run(self, gen):
        p = self.w.sim.spawn(gen)
        self.w.run()
        return p.value

    def _connect(self):
        client, server = self.libos["client"], self.libos["server"]
        self.listen_qd = yield from server.socket()
        yield from server.bind(self.listen_qd, 1)
        yield from server.listen(self.listen_qd)
        accept = server.pop(self.listen_qd)
        self.qd["client"] = yield from client.socket()
        yield from client.connect(self.qd["client"], "server-rdma", 1)
        self.qd["server"] = (yield from server.wait(accept)).value

    def queue(self, side):
        return self.libos[side].queue_of(self.qd[side])

    def _push(self, side, sga):
        """Sim-coroutine: one push; its element is freed once sent."""
        libos = self.libos[side]
        result = yield from libos.blocking_push(self.qd[side], sga)
        libos.sga_free(sga)
        assert result.error is None or self.closed

    @precondition(lambda self: not self.closed)
    @rule(side=st.sampled_from(SIDES), n=st.integers(1, 40),
          size=st.integers(1, 600))
    def push(self, side, n, size):
        """*n* pushes from *side*, all issued in one instant."""
        libos = self.libos[side]
        to = SIDES[1 - SIDES.index(side)]
        for _ in range(n):
            payload = (b"%s-%d:" % (side.encode(), len(self.sent[to]))
                       + b"p" * size)
            self.pushes.append(self.w.sim.spawn(
                self._push(side, libos.sga_alloc(payload))))
            self.sent[to].append(payload)
        self.w.run()

    @precondition(lambda self: not self.closed)
    @rule(side=st.sampled_from(SIDES), hold=st.booleans())
    def pop(self, side, hold):
        if not self.queue(side)._ready:
            return
        libos = self.libos[side]
        result = self.run(libos.blocking_pop(self.qd[side]))
        assert result.error is None
        payload = self.sent[side][self.popped[side]]
        self.popped[side] += 1
        assert result.sga.tobytes() == payload
        if hold:
            self.held[side].append((result.sga, payload))
        else:
            libos.sga_free(result.sga)
        self.w.run()

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data())
    def free(self, data):
        side = data.draw(st.sampled_from([s for s in SIDES if self.held[s]]))
        index = data.draw(st.integers(0, len(self.held[side]) - 1))
        sga, _payload = self.held[side].pop(index)
        self.libos[side].sga_free(sga)
        self.w.run()

    @rule(first=st.sampled_from(SIDES))
    def close(self, first):
        """Close both ends, *first* first, whatever is held or queued (a
        second close is a no-op)."""
        self.closed = True
        for side in (first, SIDES[1 - SIDES.index(first)]):
            self.run(self.libos[side].close(self.qd[side]))

    @invariant()
    def each_pool_buffer_is_posted_or_lent_never_both(self):
        if self.closed:
            return
        for side in SIDES:
            queue = self.queue(side)
            posted = {id(buf) for _wr, buf in queue.qp.hw.recv_buffers}
            assert len(posted) == len(queue.qp.hw.recv_buffers)
            lent = {id(buf) for buf in queue.pool if buf.in_use}
            assert not posted & lent
            assert len(posted) + len(lent) == POOL_BUFFERS
            assert queue.credits >= 0

    @invariant()
    def no_send_meets_an_empty_receive_queue(self):
        for side in SIDES:
            assert self.w.tracer.get("%s.rdma0.rnr_naks_sent" % side) == 0

    @invariant()
    def every_held_slice_reads_its_message(self):
        for side in SIDES:
            for sga, payload in self.held[side]:
                assert sga.tobytes() == payload

    def teardown(self):
        if not self.closed:
            self.close("client")
        self.run(self.libos["server"].close(self.listen_qd))
        for side in SIDES:
            for sga, _payload in self.held[side]:
                self.libos[side].sga_free(sga)
        self.w.run()
        assert not any(proc.alive for proc in self.pushes)
        for side, libos in self.libos.items():
            assert libos.mm.live_buffer_count == self.start[side]
            assert libos.qtokens.in_flight == 0


RdmaLendingMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, deadline=None,
    derandomize=True)
TestRdmaLendingMachine = RdmaLendingMachine.TestCase
