"""Catmint pops lend the receive pool: a popped element is a slice of the
pool buffer its message landed in, not a copy, and that buffer goes back
on the QP - its credit back toward the sender - only when the application
frees the slice."""

import pytest

from repro.core.types import Sga, SgaSegment
from repro.hw.iommu import IommuFault
from repro.kernelos.reclaim import crash_teardown
from repro.libos.rdma_libos import CREDITS, POOL_BUFFERS
from repro.memory.buffer import Buffer

from ..conftest import make_rdma_libos_pair


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


def connected(w, client, server):
    """Open one connection; returns (client qd, server qd, listen qd)."""
    qds = {}

    def accept():
        lqd = qds["listen"] = yield from server.socket()
        yield from server.bind(lqd, 1)
        yield from server.listen(lqd)
        qds["server"] = yield from server.accept(lqd)

    def connect():
        qd = qds["client"] = yield from client.socket()
        yield from client.connect(qd, "server-rdma", 1)

    w.sim.spawn(accept())
    w.sim.spawn(connect())
    w.run()
    return qds["client"], qds["server"], qds["listen"]


def pushed(libos, qd, payloads):
    """Sim-coroutine: push each payload in turn, freeing it once sent."""
    for payload in payloads:
        sga = libos.sga_alloc(payload)
        result = yield from libos.blocking_push(qd, sga)
        assert result.error is None
        libos.sga_free(sga)


def popped(libos, qd, n, into=None, free=True):
    """Sim-coroutine: pop *n* elements; returns their bytes, and keeps
    the sgas in *into* unless *free*."""
    out = []
    for _ in range(n):
        result = yield from libos.blocking_pop(qd)
        assert result.error is None
        out.append(result.sga.tobytes())
        if free:
            libos.sga_free(result.sga)
        else:
            into.append(result.sga)
    return out


def posted(libos, qd):
    return [buf for _wr, buf in libos.queue_of(qd).qp.hw.recv_buffers]


class TestLentPops:
    def test_a_pop_allocates_nothing_and_its_free_returns_the_slice(self):
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        sga = client.sga_alloc(b"hello")
        allocs = w.tracer.get("mm.allocs")
        run(w, client.blocking_push(cqd, sga))
        result = run(w, server.blocking_pop(sqd))
        assert w.tracer.get("mm.allocs") == allocs
        (segment,) = result.sga.segments
        assert segment.lent and segment.buf in server.queue_of(sqd).pool
        assert segment.buf not in posted(server, sqd)
        assert result.sga.tobytes() == b"hello"
        returns = w.tracer.get("mm.lent_returns")
        server.sga_free(result.sga)
        assert w.tracer.get("mm.lent_returns") == returns + 1
        assert segment.buf in posted(server, sqd)

    def test_a_held_slice_reads_its_message_after_later_ones_arrive(self):
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        run(w, pushed(client, cqd, [b"first"]))
        held = run(w, server.blocking_pop(sqd)).sga
        later = [b"later-%03d" % i for i in range(POOL_BUFFERS * 2)]
        w.sim.spawn(pushed(client, cqd, later))
        assert run(w, popped(server, sqd, len(later))) == later
        assert held.tobytes() == b"first"

    def test_a_receiver_holding_every_credited_element_stalls_its_sender(self):
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        messages = [b"m%03d" % i for i in range(CREDITS + 10)]
        sender = w.sim.spawn(pushed(client, cqd, messages))
        held = []
        assert run(w, popped(server, sqd, CREDITS, held, free=False)) \
            == messages[:CREDITS]
        assert sender.alive   # its next push waits for a credit
        assert w.tracer.get("client.catmint.flow_control_stalls") > 0
        for sga in held:
            server.sga_free(sga)
        assert run(w, popped(server, sqd, 10)) == messages[CREDITS:]
        assert not sender.alive
        assert w.tracer.get("server.rdma0.rnr_naks_sent") == 0

    def test_peers_holding_every_element_they_may_still_trade_credits(self):
        """Each pool keeps one buffer the peer's credits do not cover: a
        credit return lands while the application holds the rest."""
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        held = {client: [], server: []}
        for libos, qd in ((client, cqd), (server, sqd)):
            w.sim.spawn(pushed(libos, qd, [b"x"] * CREDITS))
        for libos, qd in ((client, cqd), (server, sqd)):
            run(w, popped(libos, qd, CREDITS, held[libos], free=False))
        for libos in (server, client):
            for sga in held[libos]:
                libos.sga_free(sga)
            w.run()
        w.sim.spawn(pushed(client, cqd, [b"more"] * 10))
        assert run(w, popped(server, sqd, 10)) == [b"more"] * 10
        for side in ("client", "server"):
            assert w.tracer.get("%s.rdma0.rnr_naks_sent" % side) == 0
            assert w.tracer.get("%s.rdma0.qp_errors" % side) == 0
            assert w.tracer.get("%s.catmint.credit_returns_received"
                                % side) >= 1

    def test_echoing_a_popped_slice_reposts_it_after_the_send(self):
        """The push holds the buffer, so freeing the slice while the
        echo is on the wire re-posts nothing until its send completes."""
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        run(w, pushed(client, cqd, [b"echo me"]))

        def echo():
            result = yield from server.blocking_pop(sqd)
            buf = result.sga.segments[0].buf
            token = server.push(sqd, result.sga)
            server.sga_free(result.sga)
            early = buf in posted(server, sqd)
            assert (yield from server.wait(token)).error is None
            return buf, early

        buf, early = run(w, echo())
        assert not early
        assert buf in posted(server, sqd)
        assert run(w, popped(client, cqd, 1)) == [b"echo me"]


class TestTeardown:
    def test_closing_with_unpopped_elements_leaves_both_heaps_as_they_were(
            self):
        w, client, server = make_rdma_libos_pair()
        start = (client.mm.live_buffer_count, server.mm.live_buffer_count)
        cqd, sqd, lqd = connected(w, client, server)
        run(w, pushed(client, cqd, [b"unpopped-%d" % i for i in range(5)]))
        held = []
        run(w, popped(server, sqd, 1, held, free=False))
        run(w, server.close(sqd))
        run(w, server.close(lqd))
        run(w, client.close(cqd))
        server.sga_free(held[0])
        for libos in (client, server):
            libos.mm.reclaim_regions()
        assert (client.mm.live_buffer_count,
                server.mm.live_buffer_count) == start == (0, 0)
        assert client.nic.iommu.mapped_ranges == 0
        assert server.nic.iommu.mapped_ranges == 0

    def test_a_process_killed_holding_lent_slices_leaves_nothing(self):
        w, client, server = make_rdma_libos_pair()
        cqd, sqd, _ = connected(w, client, server)
        run(w, pushed(client, cqd, [b"a", b"b", b"c", b"unpopped"]))
        held = []

        def app():
            yield from popped(server, sqd, 3, held, free=False)
            yield w.sim.timeout(10**12)

        proc = w.sim.spawn(app())
        w.run(until=w.sim.now + 1_000_000)
        assert len(held) == 3
        returns = w.tracer.get("mm.lent_returns")
        w.sim.spawn(crash_teardown(server, proc))
        w.run()
        assert server.mm.live_buffer_count == 0
        assert server.nic.iommu.mapped_ranges == 0
        assert w.tracer.get("mm.lent_returns") == returns + 4


class TestPushValidation:
    def test_every_segment_of_a_push_is_validated(self):
        """The second segment lies in no mapped region: the NIC may not
        read it, whatever the first segment is."""
        w, client, server = make_rdma_libos_pair()
        cqd, _sqd, _ = connected(w, client, server)
        stray = Buffer(0x1000, 16)   # no region of the heap holds it
        sga = Sga([SgaSegment(client.mm.alloc(16)), SgaSegment(stray)])
        client.push(cqd, sga)
        with pytest.raises(IommuFault):
            w.run()
