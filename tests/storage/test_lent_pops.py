"""Catfish pops lend the read span: a record popped off a file queue is
a slice of the buffer the NVMe read landed in, not a copy, and one read
driver per queue serves its pops in order."""

from repro.core.types import Sga
from repro.kernelos.reclaim import crash_teardown
from repro.libos.spdk_libos import SpdkLibOS

from ..conftest import World, make_spdk_libos

RECORDS = [b"record-%02d:" % i + b"x" * 200 for i in range(12)]


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


def written(libos, records=RECORDS, path="/log"):
    """Sim-coroutine: *records* appended to *path* and flushed; returns a
    reader's qd at the first of them."""
    qd = yield from libos.creat(path)
    for record in records:
        sga = libos.sga_alloc(record)
        yield from libos.blocking_push(qd, sga)
        libos.sga_free(sga)
    yield from libos.fsync(qd)
    return (yield from libos.open(path))


def pop_all(libos, qd, n):
    out = []
    for _ in range(n):
        out.append((yield from libos.blocking_pop(qd)).sga)
    return out


class TestLending:
    def test_pops_are_slices_of_the_read_span(self):
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from written(libos)
            allocs = w.tracer.get("mm.allocs")
            sgas = yield from pop_all(libos, qd, len(RECORDS))
            return sgas, w.tracer.get("mm.allocs") - allocs

        sgas, allocs = run(w, proc())
        span = libos.store._read_span[1]
        assert [sga.tobytes() for sga in sgas] == RECORDS
        assert all(sga.segments[0].lent and sga.segments[0].buf is span
                   for sga in sgas)
        assert allocs == 1   # the span the one read landed in

    def test_a_lent_slice_reads_its_record_after_sync_dropped_the_span(self):
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from written(libos)
            sga = (yield from libos.blocking_pop(qd)).sga
            span = libos.store._read_span[1]
            more = libos.sga_alloc(b"more")
            yield from libos.blocking_push(qd, more)
            libos.sga_free(more)
            yield from libos.fsync(qd)   # rewrites the tail: drops the span
            return sga, span

        sga, span = run(w, proc())
        assert libos.store._read_span[1] is None
        assert span.freed and not span.deallocated
        assert sga.tobytes() == RECORDS[0]
        libos.sga_free(Sga(sga.segments))
        assert span.deallocated
        assert libos.mm.live_buffer_count == 0

    def test_a_record_still_in_the_write_buffer_is_popped_as_a_copy(self):
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/log")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"unflushed"))
            return (yield from libos.blocking_pop(qd)).sga

        segment = run(w, proc()).segments[0]
        assert segment.tobytes() == b"unflushed"
        assert not segment.lent
        assert libos.store._read_span[1] is None

    def test_a_pop_cancelled_while_its_record_is_read_gives_it_back(self):
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from written(libos)
            libos.cancel(libos.pop(qd))
            yield w.sim.timeout(1_000_000)

        run(w, proc())
        assert w.tracer.get("%s.late_completions_dropped" % libos.name) == 1
        assert w.tracer.get("mm.lent_returns") == 1
        assert libos.mm.live_buffer_count == 1   # the span alone

    def test_closing_the_last_reader_returns_the_span(self):
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from written(libos)
            for sga in (yield from pop_all(libos, qd, 3)):
                libos.sga_free(sga)
            yield from libos.close(qd)

        run(w, proc())
        assert libos.mm.live_buffer_count == 0


class TestOneReadDriver:
    def test_pops_armed_together_share_one_read_and_complete_in_order(self):
        w, libos = make_spdk_libos()
        done = []

        def waiter(token, i):
            result = yield from libos.wait(token)
            done.append((i, result.sga.tobytes()))

        def proc():
            qd = yield from written(libos)
            reads = w.tracer.get("h.nvme0.reads")
            waiters = [w.sim.spawn(waiter(libos.pop(qd), i))
                       for i in range(4)]
            for each in waiters:
                yield each
            return w.tracer.get("h.nvme0.reads") - reads

        assert run(w, proc()) == 1
        assert done == list(enumerate(RECORDS[:4]))


class TestCrash:
    def test_a_process_killed_holding_lent_slices_leaves_nothing(self):
        """A DPDK NIC beside the NVMe device maps every region in its
        IOMMU, so a slice that pinned the span would leave a mapping."""
        w = World()
        host = w.add_host("h")
        nic = w.add_dpdk(host)
        libos = SpdkLibOS(host, w.add_nvme(host), name="h.catfish")
        held = []

        def app():
            qd = yield from written(libos)
            held.extend((yield from pop_all(libos, qd, 3)))
            yield w.sim.timeout(10**12)

        proc = w.sim.spawn(app())
        w.run(until=5_000_000)
        assert len(held) == 3 and host.mm.live_buffer_count == 1
        w.sim.spawn(crash_teardown(libos, proc))
        w.run()
        assert host.mm.live_buffer_count == 0
        assert nic.iommu.mapped_ranges == 0
        assert w.tracer.get("mm.lent_returns") == 3
