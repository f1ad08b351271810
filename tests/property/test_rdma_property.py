"""Property tests: RDMA NIC reliability under arbitrary loss seeds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import DemiError
from repro.rdma.verbs import ProtectionDomain, QueuePair
from repro.rmem.ring import (LocalRingConsumer, RemoteRing, RingProducer,
                             decode_record)

from ..conftest import World


def rdma_pair(drop_rate, seed):
    w = World(drop_rate=drop_rate, seed=seed)
    a, b = w.add_host("a"), w.add_host("b")
    nic_a, nic_b = w.add_rdma(a), w.add_rdma(b)
    qp_a = nic_a.create_qp()
    qp_b = nic_b.create_qp()
    nic_a.connect_qp(qp_a, nic_b.addr, qp_b.qpn)
    nic_b.connect_qp(qp_b, nic_a.addr, qp_a.qpn)
    return w, (nic_a, qp_a), (nic_b, qp_b)


class TestReliabilityProperties:
    @given(st.integers(1, 10**6),
           st.floats(min_value=0.0, max_value=0.3),
           st.integers(1, 25))
    @settings(max_examples=25, deadline=None)
    def test_all_sends_delivered_in_order(self, seed, drop_rate, n_messages):
        """Any seed, any loss up to 30%: the bounded-retry RC contract.

        Delivery is an in-order, uncorrupted, gap-free prefix; every
        posted WR gets exactly one send CQE (an adversarial loss pattern
        may exhaust the retry budget, which errors the QP and flushes
        the rest - but nothing ever vanishes silently); every send acked
        ``ok`` was delivered; and if the QP never errored, everything
        was delivered and acked.
        """
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair(drop_rate, seed)
        for i in range(n_messages):
            nic_b.post_recv(qp_b, i, w.hosts["b"].mm.alloc(64))
        for i in range(n_messages):
            nic_a.post_send(qp_a, wr_id=i, payload=b"msg-%04d" % i)
        w.run()
        cqes = qp_b.recv_cq.poll(max_cqes=1000)
        delivered = [c["wr_id"] for c in cqes]
        # In-order gap-free prefix, each message uncorrupted.
        assert delivered == list(range(len(delivered)))
        for i, cqe in enumerate(cqes):
            assert cqe["buffer"].read(0, 8) == b"msg-%04d" % i
        # Exactly one send CQE per posted WR - no silent loss.
        send_cqes = qp_a.send_cq.poll(max_cqes=1000)
        assert sorted(c["wr_id"] for c in send_cqes) == list(range(n_messages))
        ok_ids = {c["wr_id"] for c in send_cqes if c["status"] == "ok"}
        assert ok_ids <= set(delivered)
        if not qp_a.error:
            assert delivered == list(range(n_messages))
            assert ok_ids == set(range(n_messages))

    @given(st.integers(1, 10**6), st.integers(1, 15))
    @settings(max_examples=15, deadline=None)
    def test_one_sided_writes_all_land(self, seed, n_writes):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair(0.15, seed)
        targets = [w.hosts["b"].mm.alloc(32) for _ in range(n_writes)]
        for i, target in enumerate(targets):
            nic_a.post_write(qp_a, wr_id=i, payload=b"W%03d" % i,
                             raddr=target.addr)
        w.run()
        for i, target in enumerate(targets):
            assert target.read(0, 4) == b"W%03d" % i
        send_cqes = qp_a.send_cq.poll(max_cqes=1000)
        assert all(c["status"] == "ok" for c in send_cqes)
        assert len(send_cqes) == n_writes


def ring_delivery(seed, drop_rate, payloads, mutate=None):
    """A ``RingProducer`` on host a feeds, over the lossy fabric, a ring in
    host b's memory that a parked ``LocalRingConsumer`` reads.  Asserts
    the no-lost-wake-up property and returns what was delivered."""
    w, (nic_a, _), (nic_b, _) = rdma_pair(drop_rate, seed)
    qp_a = QueuePair(ProtectionDomain(nic_a))
    qp_b = QueuePair(ProtectionDomain(nic_b))
    qp_a.connect(nic_b.addr, qp_b.qpn)
    qp_b.connect(nic_a.addr, qp_a.qpn)
    mm = w.hosts["b"].mm
    ring = RemoteRing.allocate(mm, slot_size=96, n_slots=4)
    producer = RingProducer(qp_a, ring)
    consumer = LocalRingConsumer(w.hosts["b"], ring)
    if mutate is not None:
        mutate(mm)
    delivered = []

    def consume():
        while True:
            delivered.append((yield from consumer.pop()))

    def produce():
        pushed = 0
        try:
            for payload in payloads:
                yield from producer.push(payload)
                pushed += 1
        except DemiError:
            pass  # retries exhausted: the QP errored, the rest is flushed
        return pushed

    w.sim.spawn(consume())
    pp = w.sim.spawn(produce())
    w.run(until=100_000_000)
    # Quiescence: the producer is done and the consumer is parked on the
    # writer's signal with no timer behind it, so the heap is empty.
    assert not pp.alive and w.sim.peek() is None
    # Exactly once and in order: everything pushed ``ok`` came out, and
    # at most the one write whose ack was lost beyond it.
    assert delivered == payloads[:len(delivered)]
    assert pp.value <= len(delivered) <= pp.value + 1
    if not qp_a.hw.error:
        assert delivered == payloads
    # No lost wake-up: what the consumer is parked on has not landed ...
    slot = mm.read_mem(ring.slot_addr(consumer.next_seq), ring.slot_size)
    assert decode_record(slot, consumer.next_seq, ring.max_payload) is None
    # ... and no wake-up was for nothing: a retransmitted duplicate is
    # acked, not applied again, so every applied write is a new record.
    assert consumer.empty_polls == 0
    return delivered


def pulse_before_the_bytes(mm):
    """The mutant: ``write_mem`` wakes the reader, *then* stores."""
    def write_mem(addr, data):
        buf, offset = mm.resolve(addr, len(data))
        if buf.written is not None:
            buf.written.pulse()
        buf.write(offset, data)
    mm.write_mem = write_mem


class TestLocalRingNoLostWakeup:
    @given(st.integers(1, 10**6),
           st.floats(min_value=0.0, max_value=0.3),
           st.lists(st.binary(min_size=1, max_size=60), min_size=1,
                    max_size=14))
    @settings(max_examples=25, deadline=None)
    def test_the_sequence_comes_out_exactly_once_and_in_order(
            self, seed, drop_rate, payloads):
        """Any seed, any loss up to 30 %: writes are retransmitted,
        duplicated and late, the four-slot ring wraps and the producer
        reads the cursor back - and a consumer that never polls on a
        timer still sees every record."""
        ring_delivery(seed, drop_rate, payloads)

    def test_pulsing_before_the_bytes_are_written_is_caught(self):
        payloads = [b"record-%d" % i for i in range(3)]
        assert ring_delivery(7, 0.0, payloads) == payloads
        with pytest.raises(AssertionError):
            ring_delivery(7, 0.0, payloads, mutate=pulse_before_the_bytes)
