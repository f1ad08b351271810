"""Tests for the RDMA NIC: QPs, reliability, one-sided ops, RNR behaviour."""

import pytest

from repro.hw.nic import QpError

from ..conftest import World


def rdma_pair(drop_rate=0.0):
    w = World(drop_rate=drop_rate)
    a, b = w.add_host("a"), w.add_host("b")
    nic_a, nic_b = w.add_rdma(a), w.add_rdma(b)
    qp_a = nic_a.create_qp()
    qp_b = nic_b.create_qp()
    nic_a.connect_qp(qp_a, nic_b.addr, qp_b.qpn)
    nic_b.connect_qp(qp_b, nic_a.addr, qp_a.qpn)
    return w, (nic_a, qp_a), (nic_b, qp_b)


class TestTwoSided:
    def test_send_recv_delivery(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        buf = w.hosts["b"].mm.alloc(256)
        nic_b.post_recv(qp_b, wr_id=7, buffer=buf)
        nic_a.post_send(qp_a, wr_id=1, payload=b"hello rdma")
        w.run()
        cqes = qp_b.recv_cq.poll()
        assert len(cqes) == 1
        assert cqes[0]["wr_id"] == 7
        assert cqes[0]["status"] == "ok"
        assert buf.read(0, 10) == b"hello rdma"

    def test_sender_gets_completion_on_ack(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_b.post_recv(qp_b, 1, w.hosts["b"].mm.alloc(64))
        nic_a.post_send(qp_a, wr_id=42, payload=b"x")
        w.run()
        scqes = qp_a.send_cq.poll()
        assert [c["wr_id"] for c in scqes] == [42]
        assert scqes[0]["status"] == "ok"

    def test_no_posted_recv_causes_rnr_then_retry_succeeds(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_a.post_send(qp_a, wr_id=1, payload=b"early")
        # Post the buffer only after the RNR NAK would have been sent.
        buf = w.hosts["b"].mm.alloc(64)
        w.sim.call_in(nic_a._rto() // 2, nic_b.post_recv, qp_b, 5, buf)
        w.run()
        assert w.tracer.get("b.rdma0.rnr_naks_sent") >= 1
        assert [c["status"] for c in qp_b.recv_cq.poll()] == ["ok"]
        assert buf.read(0, 5) == b"early"

    def test_rnr_exhaustion_errors_the_qp(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_a.post_send(qp_a, wr_id=9, payload=b"never-received")
        w.run()
        cqes = qp_a.send_cq.poll()
        assert cqes and cqes[0]["status"] == "rnr-exceeded"
        assert qp_a.error
        with pytest.raises(QpError):
            nic_a.post_send(qp_a, wr_id=10, payload=b"more")

    def test_in_order_delivery_of_many_sends(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        bufs = [w.hosts["b"].mm.alloc(64) for _ in range(10)]
        for i, buf in enumerate(bufs):
            nic_b.post_recv(qp_b, i, buf)
        for i in range(10):
            nic_a.post_send(qp_a, wr_id=100 + i, payload=b"m%d" % i)
        w.run()
        cqes = qp_b.recv_cq.poll(max_cqes=100)
        assert [c["wr_id"] for c in cqes] == list(range(10))
        for i, buf in enumerate(bufs):
            assert buf.read(0, len(b"m%d" % i)) == b"m%d" % i

    def test_retransmit_recovers_from_loss(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair(drop_rate=0.3)
        for i in range(20):
            nic_b.post_recv(qp_b, i, w.hosts["b"].mm.alloc(64))
        for i in range(20):
            nic_a.post_send(qp_a, wr_id=i, payload=b"payload-%02d" % i)
        w.run()
        delivered = qp_b.recv_cq.poll(max_cqes=100)
        assert len(delivered) == 20
        assert [c["wr_id"] for c in delivered] == list(range(20))
        assert w.tracer.get("a.rdma0.retransmits") > 0

    def test_oversized_message_completes_with_length_error(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_b.post_recv(qp_b, 1, w.hosts["b"].mm.alloc(4))
        nic_a.post_send(qp_a, wr_id=1, payload=b"way too large")
        w.run()
        cqes = qp_b.recv_cq.poll()
        assert cqes[0]["status"] == "length-error"

    def test_unconnected_qp_rejected(self):
        w = World()
        a = w.add_host("a")
        nic = w.add_rdma(a)
        qp = nic.create_qp()
        with pytest.raises(QpError):
            nic.post_send(qp, 1, b"x")


class TestOneSided:
    def test_rdma_write_updates_remote_memory_without_remote_cpu(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        target = w.hosts["b"].mm.alloc(128)
        w.run()  # drain setup work (alloc/registration CPU charges)
        cpu_before = w.hosts["b"].cpu.busy_ns
        nic_a.post_write(qp_a, wr_id=1, payload=b"remote-write", raddr=target.addr)
        w.run()
        assert target.read(0, 12) == b"remote-write"
        assert [c["status"] for c in qp_a.send_cq.poll()] == ["ok"]
        # One-sided: the write itself burns no CPU on host b.
        assert w.hosts["b"].cpu.busy_ns == cpu_before

    def test_rdma_read_fetches_remote_memory(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        remote = w.hosts["b"].mm.alloc(64).fill(b"server-side-data")
        local = w.hosts["a"].mm.alloc(64)
        nic_a.post_read(qp_a, wr_id=3, raddr=remote.addr, rlen=16, local_buffer=local)
        w.run()
        cqes = qp_a.send_cq.poll()
        assert cqes[0]["status"] == "ok"
        assert cqes[0]["nbytes"] == 16
        assert local.read(0, 16) == b"server-side-data"

    def test_write_to_unregistered_memory_errors_the_qp(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_a.post_write(qp_a, wr_id=1, payload=b"x", raddr=0xDEAD0000)
        w.run()
        assert w.tracer.get("b.rdma0.remote_access_errors") >= 1
        cqes = qp_a.send_cq.poll()
        assert cqes and cqes[0]["status"] == "remote-access-error"
        assert qp_a.error

    def test_mixed_one_and_two_sided_in_order(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        mm_b = w.hosts["b"].mm
        recv_buf = mm_b.alloc(64)
        target = mm_b.alloc(64)
        nic_b.post_recv(qp_b, 1, recv_buf)
        nic_a.post_write(qp_a, 10, b"AAAA", raddr=target.addr)
        nic_a.post_send(qp_a, 11, b"BBBB")
        w.run()
        assert target.read(0, 4) == b"AAAA"
        assert recv_buf.read(0, 4) == b"BBBB"
        send_cqes = qp_a.send_cq.poll(10)
        assert [c["wr_id"] for c in send_cqes] == [10, 11]


class TestCq:
    def test_cq_signal_wakes_poller(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        nic_b.post_recv(qp_b, 1, w.hosts["b"].mm.alloc(64))
        seen = []

        def poller():
            yield qp_b.recv_cq.signal()
            seen.extend(qp_b.recv_cq.poll())

        w.sim.spawn(poller())
        w.sim.call_in(500, nic_a.post_send, qp_a, 1, b"wake")
        w.run()
        assert len(seen) == 1 and seen[0]["status"] == "ok"

    def test_cq_poll_limit(self):
        w, (nic_a, qp_a), (nic_b, qp_b) = rdma_pair()
        for i in range(5):
            nic_b.post_recv(qp_b, i, w.hosts["b"].mm.alloc(64))
            nic_a.post_send(qp_a, i, b"m")
        w.run()
        assert len(qp_b.recv_cq.poll(max_cqes=2)) == 2
        assert len(qp_b.recv_cq.poll()) == 3  # the rest stayed queued
