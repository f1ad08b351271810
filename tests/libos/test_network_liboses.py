"""Cross-libOS tests: one Demikernel application, three library OSes.

The paper's portability claim in executable form: the same echo logic,
written once against the Figure-3 API, runs over the DPDK libOS, the
RDMA libOS, and the POSIX libOS unchanged.
"""

import pytest

from ..conftest import (
    make_dpdk_libos_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
)

PAIR_BUILDERS = {
    "dpdk": make_dpdk_libos_pair,
    "posix": make_posix_libos_pair,
    "rdma": make_rdma_libos_pair,
}

SERVER_ADDR = {
    "dpdk": "10.0.0.2",
    "posix": "10.0.0.2",
    "rdma": "server-rdma",
}


def echo_server(libos, port=7):
    """The portable Demikernel echo server."""
    def proc():
        lqd = yield from libos.socket()
        yield from libos.bind(lqd, port)
        yield from libos.listen(lqd)
        qd = yield from libos.accept(lqd)
        while True:
            result = yield from libos.blocking_pop(qd)
            if result.error is not None:
                return result.error
            yield from libos.blocking_push(qd, result.sga)
    return proc()


def echo_client(libos, server_addr, messages, port=7):
    """The portable Demikernel echo client; returns (replies, rtts)."""
    def proc():
        qd = yield from libos.socket()
        yield from libos.connect(qd, server_addr, port)
        replies, rtts = [], []
        for message in messages:
            start = libos.sim.now
            yield from libos.blocking_push(qd, libos.sga_alloc(message))
            result = yield from libos.blocking_pop(qd)
            rtts.append(libos.sim.now - start)
            replies.append(result.sga.tobytes())
        yield from libos.close(qd)
        return replies, rtts
    return proc()


@pytest.mark.parametrize("flavor", ["dpdk", "posix", "rdma"])
class TestPortableEcho:
    def test_single_echo(self, flavor):
        w, client, server = PAIR_BUILDERS[flavor]()
        w.sim.spawn(echo_server(server))
        cp = w.sim.spawn(echo_client(client, SERVER_ADDR[flavor], [b"ping"]))
        w.run()
        replies, _ = cp.value
        assert replies == [b"ping"]

    def test_many_messages_in_order(self, flavor):
        w, client, server = PAIR_BUILDERS[flavor]()
        messages = [b"msg-%03d" % i for i in range(20)]
        w.sim.spawn(echo_server(server))
        cp = w.sim.spawn(echo_client(client, SERVER_ADDR[flavor], messages))
        w.run()
        replies, _ = cp.value
        assert replies == messages

    def test_large_elements_stay_atomic(self, flavor):
        w, client, server = PAIR_BUILDERS[flavor]()
        messages = [bytes([i]) * 4000 for i in range(5)]
        w.sim.spawn(echo_server(server))
        cp = w.sim.spawn(echo_client(client, SERVER_ADDR[flavor], messages))
        w.run()
        replies, _ = cp.value
        assert replies == messages


class TestLatencyOrdering:
    def test_kernel_bypass_beats_posix(self):
        """Figure 1's gap, measured."""
        def rtt_of(flavor):
            w, client, server = PAIR_BUILDERS[flavor]()
            w.sim.spawn(echo_server(server))
            cp = w.sim.spawn(echo_client(client, SERVER_ADDR[flavor],
                                         [b"x" * 64] * 10))
            w.run()
            _, rtts = cp.value
            return sum(rtts[1:]) / len(rtts[1:])  # skip warmup (ARP etc.)

        posix_rtt = rtt_of("posix")
        dpdk_rtt = rtt_of("dpdk")
        rdma_rtt = rtt_of("rdma")
        assert dpdk_rtt * 3 < posix_rtt
        assert rdma_rtt * 3 < posix_rtt


class TestDpdkSpecifics:
    def test_udp_echo_roundtrip(self):
        w, client, server = make_dpdk_libos_pair()

        def server_proc():
            qd = yield from server.socket("udp")
            yield from server.bind(qd, 53)
            result = yield from server.blocking_pop(qd)
            src = result.value
            token = server.push_to(qd, result.sga, src)
            yield from server.wait(token)

        def client_proc():
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 53)
            yield from client.blocking_push(qd, client.sga_alloc(b"datagram"))
            result = yield from client.blocking_pop(qd)
            return result.sga.tobytes()

        w.sim.spawn(server_proc())
        cp = w.sim.spawn(client_proc())
        w.run()
        assert cp.value == b"datagram"

    def test_udp_oversized_element_rejected(self):
        w, client, _server = make_dpdk_libos_pair()

        def proc():
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 53)
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x" * 3000))
            return result.error

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == "element exceeds MTU"

    def test_no_copies_charged_on_datapath(self):
        """Zero-copy: the DPDK libOS never charges a user<->kernel copy."""
        w, client, server = make_dpdk_libos_pair()
        w.sim.spawn(echo_server(server))
        cp = w.sim.spawn(echo_client(client, "10.0.0.2", [b"z" * 4096] * 5))
        w.run()
        # The kernel-copy counters simply do not exist on this path.
        copies = [v for k, v in w.tracer.counters.items()
                  if "bytes_copied" in k]
        assert copies == []

    def test_push_validates_iommu_registration(self):
        w, client, server = make_dpdk_libos_pair()
        w.sim.spawn(echo_server(server))

        def proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 7)
            sga = client.sga_alloc(b"registered fine")
            result = yield from client.blocking_push(qd, sga)
            return result.error is None

        cp = w.sim.spawn(proc())
        w.run()
        assert cp.value
        assert w.tracer.get("client.dpdk0.iommu.translations") > 0

    def test_eof_after_peer_close(self):
        w, client, server = make_dpdk_libos_pair()

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 7)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            result = yield from server.blocking_pop(qd)
            return result.error

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 7)
            yield from client.close(qd)

        sp = w.sim.spawn(server_proc())
        w.sim.spawn(client_proc())
        w.run()
        assert sp.value == "eof"


class TestRdmaSpecifics:
    def test_no_rnr_naks_thanks_to_flow_control(self):
        """The libOS's credits keep the receiver stocked: zero RNR NAKs
        even when the sender bursts past the buffer pool size."""
        from repro.libos.rdma_libos import POOL_BUFFERS
        w, client, server = make_rdma_libos_pair()
        n_messages = POOL_BUFFERS * 3

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            got = 0
            while got < n_messages:
                result = yield from server.blocking_pop(qd)
                assert result.error is None
                got += 1
            return got

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            tokens = [client.push(qd, client.sga_alloc(b"m%04d" % i))
                      for i in range(n_messages)]
            yield from client.wait_all(tokens)

        sp = w.sim.spawn(server_proc())
        w.sim.spawn(client_proc())
        w.run()
        assert sp.value == n_messages
        assert w.tracer.get("server.rdma0.rnr_naks_sent") == 0
        assert w.tracer.get("client.catmint.flow_control_stalls") > 0

    def test_oversized_element_rejected(self):
        from repro.libos.rdma_libos import POOL_BUFFER_SIZE
        w, client, server = make_rdma_libos_pair()

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            yield from server.accept(lqd)

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x" * (POOL_BUFFER_SIZE + 1)))
            return result.error

        w.sim.spawn(server_proc())
        cp = w.sim.spawn(client_proc())
        w.run()
        assert cp.value == "element exceeds pool buffer size"

    def test_credits_replenish(self):
        from repro.libos.rdma_libos import POOL_BUFFERS
        w, client, server = make_rdma_libos_pair()

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            for _ in range(POOL_BUFFERS * 2):
                yield from server.blocking_pop(qd)

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            for i in range(POOL_BUFFERS * 2):
                yield from client.blocking_push(
                    qd, client.sga_alloc(b"payload"))

        w.sim.spawn(server_proc())
        w.sim.spawn(client_proc())
        w.run()
        assert w.tracer.get("server.catmint.credit_returns_sent") >= 2
        assert w.tracer.get("client.catmint.credit_returns_received") >= 2


class TestPosixSpecifics:
    def test_posix_path_pays_syscalls_and_copies(self):
        w, client, server = make_posix_libos_pair()
        w.sim.spawn(echo_server(server))
        cp = w.sim.spawn(echo_client(client, "10.0.0.2", [b"y" * 2048] * 3))
        w.run()
        replies, _ = cp.value
        assert len(replies) == 3
        assert w.tracer.get("client.kernel.syscalls") > 0
        assert w.tracer.get("client.kernel.bytes_copied_tx") >= 3 * 2048
