"""Tests for disaggregated-memory ring queues over one-sided RDMA."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import DemiError
from repro.hw.iommu import IommuFault
from repro.rdma.verbs import ProtectionDomain, QueuePair
from repro.rmem.ring import (LocalRingConsumer, RemoteRing, RingProducer,
                             RmemQueue, encode_record)
from repro.sim.engine import Interrupt
from repro.testbed import World, make_rmem_world


class TestRingGeometry:
    def test_slot_addresses_wrap(self):
        ring = RemoteRing(0x1000, slot_size=128, n_slots=4)
        assert ring.slot_addr(1) == ring.slot_addr(5)
        assert ring.slot_addr(1) != ring.slot_addr(2)
        addrs = {ring.slot_addr(s) for s in range(1, 5)}
        assert len(addrs) == 4

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(DemiError):
            RemoteRing(0, slot_size=20, n_slots=4)
        with pytest.raises(DemiError):
            RemoteRing(0, slot_size=128, n_slots=1)

    def test_max_payload_excludes_framing(self):
        from repro.rmem.ring import RECORD_STAMP, SLOT_HEADER
        ring = RemoteRing(0, slot_size=128, n_slots=4)
        assert ring.max_payload == 128 - SLOT_HEADER.size - RECORD_STAMP.size


class TestProduceConsume:
    def test_single_element_through_remote_memory(self):
        w, producer, consumer, memnode = make_rmem_world()

        def produce():
            yield from producer.push(b"disaggregated")

        def consume():
            return (yield from consumer.pop())

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**12)
        assert cp.value == b"disaggregated"

    def test_memory_node_cpu_never_runs(self):
        w, producer, consumer, memnode = make_rmem_world()
        w.run()  # drain arena-registration charges
        cpu_before = memnode.cpu.busy_ns

        def produce():
            for i in range(10):
                yield from producer.push(b"element-%d" % i)

        def consume():
            out = []
            for _ in range(10):
                out.append((yield from consumer.pop()))
            return out

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**12)
        assert cp.value == [b"element-%d" % i for i in range(10)]
        assert memnode.cpu.busy_ns == cpu_before  # one-sided only

    def test_ring_wrap_preserves_order(self):
        w, producer, consumer, memnode = make_rmem_world(n_slots=4)
        n = 20  # 5x around the 4-slot ring

        def produce():
            for i in range(n):
                yield from producer.push(b"wrap-%02d" % i)

        def consume():
            out = []
            for _ in range(n):
                out.append((yield from consumer.pop()))
            return out

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**13)
        assert cp.value == [b"wrap-%02d" % i for i in range(n)]

    def test_full_ring_applies_backpressure(self):
        w, producer, consumer, memnode = make_rmem_world(n_slots=4)
        produced = []

        def produce():
            for i in range(12):
                yield from producer.push(b"bp-%02d" % i)
                produced.append(i)

        def slow_consume():
            out = []
            for _ in range(12):
                yield w.sim.timeout(100_000)
                out.append((yield from consumer.pop()))
            return out

        w.sim.spawn(produce())
        cp = w.sim.spawn(slow_consume())
        w.sim.run_until_complete(cp, limit=10**13)
        assert cp.value == [b"bp-%02d" % i for i in range(12)]
        assert producer.full_stalls > 0

    def test_oversized_element_rejected(self):
        w, producer, _consumer, _memnode = make_rmem_world(slot_size=64)

        def produce():
            with pytest.raises(DemiError):
                yield from producer.push(b"x" * 100)
            return "checked"

        p = w.sim.spawn(produce())
        w.sim.run_until_complete(p, limit=10**12)
        assert p.value == "checked"

    def test_empty_polls_counted(self):
        w, producer, consumer, _memnode = make_rmem_world()

        def consume():
            return (yield from consumer.pop())

        cp = w.sim.spawn(consume())
        w.sim.call_in(50_000, lambda: w.sim.spawn(_late_producer()))

        def _late_producer():
            yield from producer.push(b"late")

        w.sim.run_until_complete(cp, limit=10**12)
        assert cp.value == b"late"
        assert consumer.empty_polls > 0

    @given(st.lists(st.binary(min_size=1, max_size=500), min_size=1,
                    max_size=25))
    @settings(max_examples=15, deadline=None)
    def test_any_payload_sequence_roundtrips(self, payloads):
        w, producer, consumer, _memnode = make_rmem_world(
            slot_size=600, n_slots=6)

        def produce():
            for payload in payloads:
                yield from producer.push(payload)

        def consume():
            out = []
            for _ in payloads:
                out.append((yield from consumer.pop()))
            return out

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**13)
        assert cp.value == payloads


class TestOneSidedRead:
    """A one-sided READ's landing buffer is freed however the read ends,
    and never while the response can still land in it."""

    def start_read(self):
        """A READ of one slot, posted and in flight."""
        w, _producer, consumer, _memnode = make_rmem_world()
        w.run()
        ops, ring = consumer.ops, consumer.ring
        before = ops.mm.live_buffer_count

        def reader():
            try:
                yield from ops.read(ring.slot_addr(1), ring.slot_size)
            except DemiError as err:
                return str(err)

        proc = w.sim.spawn(reader())
        w.run(until=w.sim.now + 1_000)   # the response is microseconds away
        assert len(ops.qp.hw.inflight) == 1
        return w, ops, proc, before

    def test_a_failed_read_frees_its_landing_buffer(self):
        w, ops, proc, before = self.start_read()
        ops.qp.destroy()                 # the READ completes with a flush
        w.run()
        assert proc.value == "one-sided op failed: flush"
        assert ops.mm.live_buffer_count == before

    def test_an_interrupted_read_frees_it_once_the_response_lands(self):
        w, ops, proc, before = self.start_read()
        proc.interrupt("gave up")
        w.run(until=w.sim.now + 1)
        assert not proc.alive and isinstance(proc._exc, Interrupt)
        # Freed, but the NIC still holds it for the response in flight.
        assert ops.mm.live_buffer_count == before + 1
        w.run()
        assert ops.mm.live_buffer_count == before


class TestLocalRingConsumer:
    """The pop side of a ring in the consumer's *own* arena: what a
    replica runs.  It parks on the arena's ``mm.watch`` queue, so a record
    is seen when the NIC lands it, not at the next poll tick."""

    def make_world(self, slot_size=128, n_slots=16):
        """An upstream host producing over a real QP into a ring in the
        downstream host's memory, read there by a ``LocalRingConsumer``.
        ``landed`` lists the instants the downstream NIC applied a write.
        """
        w = World()
        up, down = w.add_host("up"), w.add_host("down")
        qp_up = QueuePair(ProtectionDomain(w.add_rdma(up)))
        qp_down = QueuePair(ProtectionDomain(w.add_rdma(down)))
        qp_up.connect(qp_down.nic.addr, qp_down.hw.qpn)
        qp_down.connect(qp_up.nic.addr, qp_up.hw.qpn)
        ring = RemoteRing.allocate(down.mm, slot_size, n_slots)
        landed = []
        write_mem = down.mm.write_mem

        def spy(addr, data):
            landed.append(w.sim.now)
            write_mem(addr, data)

        down.mm.write_mem = spy
        return (w, RingProducer(qp_up, ring), LocalRingConsumer(down, ring),
                qp_down, landed)

    def popper(self, w, consumer, out, busy_ns=0):
        """Spawn-me: pop records into *out* as ``(when, payload)`` for
        ever, staying busy for *busy_ns* after each."""
        while True:
            payload = yield from consumer.pop()
            out.append((w.sim.now, payload))
            if busy_ns:
                yield w.sim.timeout(busy_ns)

    def test_a_record_is_popped_at_the_instant_its_write_lands(self):
        w, producer, consumer, _qp, landed = self.make_world()
        out = []
        w.sim.spawn(self.popper(w, consumer, out))

        def produce():
            for i, gap in enumerate((10_000, 700, 13_300)):  # any phase
                yield w.sim.timeout(gap)
                yield from producer.push(b"record-%d" % i)

        w.sim.spawn(produce())
        w.run()
        assert [payload for _when, payload in out] == [
            b"record-0", b"record-1", b"record-2"]
        assert len(landed) == 3
        assert [when for when, _payload in out] == landed
        assert consumer.empty_polls == 0

    def test_an_idle_ring_schedules_nothing(self):
        w, _producer, consumer, _qp, _landed = self.make_world()
        proc = w.sim.spawn(self.popper(w, consumer, []))
        w.run(until=1_000)
        assert proc.alive and w.sim.peek() is None  # parked, no poll timer

    def test_a_record_landing_while_the_consumer_is_busy_is_not_lost(self):
        w, producer, consumer, _qp, landed = self.make_world()
        out = []
        w.sim.spawn(self.popper(w, consumer, out, busy_ns=50_000))

        def produce():
            yield from producer.push(b"first")
            yield from producer.push(b"second")   # lands mid-busy: no waiter

        w.sim.spawn(produce())
        w.run()
        assert [payload for _when, payload in out] == [b"first", b"second"]
        first_at, second_at = (when for when, _payload in out)
        assert first_at == landed[0]
        assert landed[1] < first_at + 50_000 == second_at
        assert consumer.empty_polls == 0

    def test_twelve_records_through_four_slots_publish_the_cursor(self):
        w, producer, consumer, _qp, landed = self.make_world(n_slots=4)
        cursors = []

        def consume():
            for _ in range(12):
                payload = yield from consumer.pop()
                cursors.append((payload, consumer.arena.read(0, 8)))

        def produce():
            for i in range(12):
                yield from producer.push(b"wrap-%02d" % i)

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**12)
        assert [payload for payload, _cursor in cursors] == [
            b"wrap-%02d" % i for i in range(12)]
        every = LocalRingConsumer.CURSOR_EVERY
        assert [int.from_bytes(cursor, "big") for _p, cursor in cursors] == [
            (i + 1) // every * every for i in range(12)]
        # The cursor is the consumer's own store: only the twelve records
        # were device writes, and each woke it for something.
        assert len(landed) == 12 and consumer.empty_polls == 0

    def test_posted_writes_in_flight_land_and_decode_in_seq_order(self):
        """``post`` waits for no completion: eight WRITEs posted in one
        instant are all in flight at once, land one after the other -
        RC delivers them in post order - and pop in seq order; their
        completions come back in that order too."""
        w, producer, consumer, _qp, landed = self.make_world()
        out, wrs, reaped = [], [], []
        w.sim.spawn(self.popper(w, consumer, out))
        k = 8

        def produce():
            for i in range(k):
                wrs.append((yield from producer.post(b"in-flight-%d" % i)))
            in_flight = len(producer.ops.qp.hw.inflight)
            for wr in wrs:
                yield from producer.ops.complete(wr)
                reaped.append(w.sim.now)
            return in_flight

        pp = w.sim.spawn(produce())
        w.run()
        assert pp.value == k
        assert [payload for _when, payload in out] == [
            b"in-flight-%d" % i for i in range(k)]
        assert [when for when, _payload in out] == landed
        assert landed == sorted(landed) and len(set(landed)) == k
        assert reaped == sorted(reaped)
        # Pipelined: the last lands before the first completion is back.
        assert landed[-1] < reaped[0]
        assert consumer.empty_polls == 0

    def test_a_published_cursor_spares_the_read(self):
        """A producer given the cursor its consumer publishes to the
        producer's host - as a replica's heartbeat does - takes it from
        there when the ring looks full: twelve records through four slots
        and not one RDMA READ.  Without it, the same run READs the
        in-ring cursor each time the ring looks full."""
        reads = {}
        for published in (True, False):
            w, producer, consumer, _qp, _landed = self.make_world(n_slots=4)
            cursor = [0]
            if published:
                producer.published_cursor = lambda: cursor[0]
            out = []

            def consume():
                for _ in range(12):
                    out.append((yield from consumer.pop()))
                    cursor[0] = consumer.next_seq - 1

            def produce():
                for i in range(12):
                    yield from producer.push(b"wrap-%02d" % i)

            w.sim.spawn(produce())
            cp = w.sim.spawn(consume())
            w.sim.run_until_complete(cp, limit=10**12)
            assert out == [b"wrap-%02d" % i for i in range(12)]
            reads[published] = w.tracer.get("up.rdma0.tx_read_req")
        assert reads == {True: 0, False: reads[False]} and reads[False] > 0

    def test_a_stale_published_cursor_falls_back_to_the_read(self):
        """A published cursor that says the ring is full is not the last
        word: the producer READs the in-ring cursor and, while the ring is
        really full, stalls."""
        w, producer, consumer, _qp, _landed = self.make_world(n_slots=4)
        producer.published_cursor = lambda: 0   # never published: stale
        out = []

        def slow_consume():
            for _ in range(8):
                yield w.sim.timeout(20_000)
                out.append((yield from consumer.pop()))

        def produce():
            for i in range(8):
                yield from producer.push(b"stale-%d" % i)

        w.sim.spawn(produce())
        cp = w.sim.spawn(slow_consume())
        w.sim.run_until_complete(cp, limit=10**12)
        assert out == [b"stale-%d" % i for i in range(8)]
        assert producer.full_stalls > 0
        assert w.tracer.get("up.rdma0.tx_read_req") > 0

    def test_a_torn_prefix_wakes_it_for_nothing_and_delivers_once(self):
        w, _producer, consumer, _qp, _landed = self.make_world()
        out = []
        proc = w.sim.spawn(self.popper(w, consumer, out))
        image = encode_record(1, b"torn-then-whole")
        slot = consumer.ring.slot_addr(1)
        mm = consumer.mm
        for cut in (5, len(image) - 1):       # header torn, then stamp torn
            w.sim.call_in(1_000 * cut, mm.write_mem, slot, image[:cut])
        w.run()
        assert out == [] and consumer.empty_polls == 2
        w.sim.call_in(1_000, mm.write_mem, slot + 5, image[5:])
        w.run()
        assert [payload for _when, payload in out] == [b"torn-then-whole"]
        # Delivered once: it is parked on seq 2 now, and re-landing seq 1
        # wakes it, decodes nothing and delivers nothing.
        mm.write_mem(slot, image)
        w.run()
        assert len(out) == 1 and consumer.empty_polls == 3 and proc.alive

    def test_freeing_the_arena_under_a_parked_consumer_is_clean(self):
        """What ``ReplicaNode._teardown_up`` and ``crash`` do: interrupt,
        sever the QP, free.  Nothing may fire on the dead buffer."""
        w, producer, consumer, qp_down, landed = self.make_world()
        proc = w.sim.spawn(self.popper(w, consumer, []))
        w.run()
        written = consumer.arena.written
        assert len(written._waiters) == 1
        proc.interrupt("chain reconfig")
        qp_down.destroy()
        consumer.mm.free(consumer.arena)
        w.run()
        assert not proc.alive and isinstance(proc._exc, Interrupt)
        assert consumer.mm.live_buffer_count == 0

        def produce():
            with pytest.raises(DemiError):
                yield from producer.push(b"too late")
            return "failed fast"

        pp = w.sim.spawn(produce())
        w.sim.run_until_complete(pp, limit=10**12)
        assert pp.value == "failed fast"
        assert landed == [] and written.pulses == 0
        with pytest.raises(IommuFault):
            consumer.mm.write_mem(consumer.ring.base_addr, b"stray")


class TestRmemQueueApi:
    def make_queue_world(self):
        from repro.core.api import LibOS
        w, producer, consumer, memnode = make_rmem_world()
        # Two libOSes: one on the producer host, one on the consumer host.
        prod_libos = LibOS(w.hosts["producer"], "prod")
        cons_libos = LibOS(w.hosts["consumer"], "cons")
        push_q = RmemQueue(prod_libos, 100)
        prod_libos._queues[100] = push_q
        push_q.attach_producer(producer)
        pop_q = RmemQueue(cons_libos, 200)
        cons_libos._queues[200] = pop_q
        pop_q.attach_consumer(consumer)
        return w, prod_libos, cons_libos

    def test_figure3_api_over_remote_memory(self):
        w, prod_libos, cons_libos = self.make_queue_world()

        def produce():
            for i in range(5):
                yield from prod_libos.blocking_push(
                    100, prod_libos.sga_alloc(b"api-%d" % i))

        def consume():
            out = []
            for _ in range(5):
                result = yield from cons_libos.blocking_pop(200)
                out.append(result.sga.tobytes())
            return out

        w.sim.spawn(produce())
        cp = w.sim.spawn(consume())
        w.sim.run_until_complete(cp, limit=10**13)
        assert cp.value == [b"api-%d" % i for i in range(5)]
        assert w.tracer.get("prod.rmem_tx_elements") == 5
        assert w.tracer.get("cons.rmem_rx_elements") == 5

    def test_push_without_producer_errors(self):
        from repro.core.api import LibOS
        w, _p, _c, memnode = make_rmem_world()
        libos = LibOS(memnode, "demi")
        queue = RmemQueue(libos, 1)
        libos._queues[1] = queue

        def proc():
            result = yield from libos.blocking_push(
                1, libos.sga_alloc(b"nowhere"))
            return result.error

        p = w.sim.spawn(proc())
        w.sim.run_until_complete(p, limit=10**12)
        assert p.value == "no producer attached"

    def test_a_dead_consumer_qp_fails_the_pops_not_the_caller(self):
        """The QP under an attached consumer is destroyed with a pop
        outstanding - while the pump's READ is in flight, and while it
        sleeps between polls: ``destroy()`` returns, that pop fails with
        the transport's error, and so does every later pop, at once."""
        from repro.core.api import LibOS
        errors = set()
        for at in range(0, 9_000, 500):
            w, _producer, consumer, _memnode = make_rmem_world()
            libos = LibOS(w.hosts["consumer"], "cons")
            queue = libos._queues[200] = RmemQueue(libos, 200)
            queue.attach_consumer(consumer)
            token = libos.pop(200)
            w.run(until=at)
            consumer.ops.qp.destroy()
            w.run(until=at + 20_000)
            error = libos.qtokens.completion_of(token).value.error
            later = libos.pop(200)
            assert libos.qtokens.completion_of(later).value.error == error
            assert libos.qtokens.in_flight == 0
            assert libos.mm.live_buffer_count == 0
            errors.add(error)
        assert errors == {"one-sided op failed: flush",
                          "QP 1 is in the error state"}

    @pytest.mark.parametrize("how", ["close", "owner-crash"])
    def test_consumer_pump_stops_with_the_queue(self, how):
        # The pump sits inside RingConsumer.pop()'s poll loop, which never
        # looks at ``closed``: unless the queue reaps it, a closed queue
        # - or a dead process's - goes on RDMA-READing the ring forever.
        from repro.core.api import LibOS
        from repro.kernelos.reclaim import reclaim_process
        from ..conftest import record_spawns
        w, _producer, consumer, _memnode = make_rmem_world()
        libos = LibOS(w.hosts["consumer"], "cons")
        queue = libos._queues[200] = RmemQueue(libos, 200)
        spawned = record_spawns(w.sim)
        queue.attach_consumer(consumer)
        (pump,) = spawned
        w.run(until=100_000)
        assert pump.alive and consumer.empty_polls > 0

        if how == "close":
            closer = w.sim.spawn(libos.close(200))
            w.sim.run_until_complete(closer, limit=10**9)
        else:
            reclaim_process(libos)
        w.run(until=w.sim.now + 10_000)  # let a read in flight land
        polls = consumer.empty_polls
        w.run(until=w.sim.now + 1_000_000)
        assert not pump.alive
        assert consumer.empty_polls == polls
