"""Tests for the verbs layer and rdmacm-style connection management."""

import pytest

from repro.rdma.cm import RdmaCm
from repro.rdma.verbs import ProtectionDomain, QueuePair, VerbsError

from ..conftest import World


def make_rdma_world():
    w = World()
    a, b = w.add_host("a"), w.add_host("b")
    nic_a, nic_b = w.add_rdma(a), w.add_rdma(b)
    cm = RdmaCm(w.sim)
    return w, (a, nic_a), (b, nic_b), cm


class TestVerbs:
    def test_qp_send_recv_through_wrappers(self):
        w, (a, nic_a), (b, nic_b), _cm = make_rdma_world()
        pd_a, pd_b = ProtectionDomain(nic_a), ProtectionDomain(nic_b)
        qp_a, qp_b = QueuePair(pd_a), QueuePair(pd_b)
        qp_a.connect(nic_b.addr, qp_b.qpn)
        qp_b.connect(nic_a.addr, qp_a.qpn)
        buf = b.mm.alloc(128)
        qp_b.post_recv(buf)

        def receiver():
            cqe = yield from qp_b.wait_recv_completion()
            return cqe

        def sender():
            qp_a.post_send(b"verbs message")
            cqe = yield from qp_a.wait_send_completion()
            return cqe

        rp = w.sim.spawn(receiver())
        sp = w.sim.spawn(sender())
        w.run()
        assert rp.value["status"] == "ok"
        assert sp.value["status"] == "ok"
        assert buf.read(0, 13) == b"verbs message"


class TestCm:
    def test_connect_accept_exchange_qps(self):
        w, (a, nic_a), (b, nic_b), cm = make_rdma_world()
        listener = cm.listen(nic_b, 7)

        def server():
            qp = yield from listener.accept()
            return qp

        def client():
            qp = yield from cm.connect(nic_a, nic_b.addr, 7)
            return qp

        sp = w.sim.spawn(server())
        cp = w.sim.spawn(client())
        w.run()
        assert cp.value.hw.remote_qpn == sp.value.qpn
        assert sp.value.hw.remote_qpn == cp.value.qpn

    def test_connect_completes_after_accept(self):
        """rdmacm semantics: the client returns only once the server
        accepted - so server-side recv buffers posted right after accept
        are guaranteed to beat the client's first send."""
        w, (a, nic_a), (b, nic_b), cm = make_rdma_world()
        listener = cm.listen(nic_b, 7)
        times = {}

        def server():
            yield w.sim.timeout(200_000)  # accept late
            qp = yield from listener.accept()
            times["accepted"] = w.sim.now
            return qp

        def client():
            yield from cm.connect(nic_a, nic_b.addr, 7)
            times["connected"] = w.sim.now

        w.sim.spawn(server())
        w.sim.spawn(client())
        w.run()
        assert times["connected"] > times["accepted"]

    def test_connect_refused_without_listener(self):
        w, (a, nic_a), (b, nic_b), cm = make_rdma_world()

        def client():
            with pytest.raises(VerbsError):
                yield from cm.connect(nic_a, nic_b.addr, 99)
            return "checked"

        cp = w.sim.spawn(client())
        w.run()
        assert cp.value == "checked"

    def test_duplicate_listen_rejected(self):
        w, _, (b, nic_b), cm = make_rdma_world()
        cm.listen(nic_b, 7)
        with pytest.raises(VerbsError):
            cm.listen(nic_b, 7)

    def test_connect_charges_control_path_delay(self):
        w, (a, nic_a), (b, nic_b), cm = make_rdma_world()
        listener = cm.listen(nic_b, 7)

        def server():
            yield from listener.accept()

        def client():
            start = w.sim.now
            yield from cm.connect(nic_a, nic_b.addr, 7)
            return w.sim.now - start

        w.sim.spawn(server())
        cp = w.sim.spawn(client())
        w.run()
        assert cp.value >= cm.connect_delay_ns
