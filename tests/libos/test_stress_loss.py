"""Integration stress: full libOS stacks under packet loss and pipelining.

The reliability machinery (TCP retransmission/cwnd, RDMA NIC acks and
go-back-N) was unit-tested at its own layer; these tests drive it through
the whole Demikernel stack - application -> libOS -> protocol -> NIC ->
lossy fabric - and require end-to-end exactness.
"""

from repro.sim.faults import FaultPlan

from ..conftest import make_dpdk_libos_pair, make_rdma_libos_pair


class TestDpdkUnderLoss:
    def test_echo_stream_survives_loss(self):
        w, client, server = make_dpdk_libos_pair(drop_rate=0.1, seed=21)
        from repro.apps.echo import demi_echo_client, demi_echo_server
        messages = [b"lossy-%03d" % i for i in range(30)]
        w.sim.spawn(demi_echo_server(server))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", messages))
        w.sim.run_until_complete(cp, limit=10**14)
        replies, _stats = cp.value
        assert replies == messages
        assert w.tracer.get("client.catnip.stack.tcp_retransmits") + \
            w.tracer.get("server.catnip.stack.tcp_retransmits") > 0

    def test_large_elements_survive_loss(self):
        w, client, server = make_dpdk_libos_pair(drop_rate=0.08, seed=33)
        from repro.apps.echo import demi_echo_client, demi_echo_server
        messages = [bytes([i]) * 8000 for i in range(8)]
        w.sim.spawn(demi_echo_server(server))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", messages))
        w.sim.run_until_complete(cp, limit=10**14)
        replies, _ = cp.value
        assert replies == messages


class TestRdmaUnderLoss:
    def test_credited_stream_survives_loss(self):
        from repro.libos.rdma_libos import POOL_BUFFERS
        w, client, server = make_rdma_libos_pair(seed=17)
        w.install_faults(FaultPlan(seed=17).loss(0, 10**14, rate=0.1))
        n = POOL_BUFFERS + 20  # crosses a credit-return boundary

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            out = []
            for _ in range(n):
                result = yield from server.blocking_pop(qd)
                out.append(result.sga.tobytes())
                server.sga_free(result.sga)
            return out

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            for i in range(n):
                yield from client.blocking_push(
                    qd, client.sga_alloc(b"seq-%04d" % i))

        sp = w.sim.spawn(server_proc())
        w.sim.spawn(client_proc())
        w.sim.run_until_complete(sp, limit=10**14)
        assert sp.value == [b"seq-%04d" % i for i in range(n)]
        assert (w.tracer.get("client.rdma0.retransmits")
                + w.tracer.get("server.rdma0.retransmits")) > 0


class TestPipelinedClients:
    def test_many_outstanding_operations(self):
        """8 requests in flight at once through one TCP queue."""
        w, client, server = make_dpdk_libos_pair()
        from repro.apps.echo import demi_echo_server
        w.sim.spawn(demi_echo_server(server))
        n = 64

        def pipelined_client():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 7)
            pop_tokens = []
            received = []
            sent = 0
            while len(received) < n:
                while sent < n and sent - len(received) < 8:
                    client.push(qd, client.sga_alloc(b"p-%03d" % sent))
                    pop_tokens.append(client.pop(qd))
                    sent += 1
                index, result = yield from client.wait_any(pop_tokens)
                pop_tokens.pop(index)
                received.append(result.sga.tobytes())
            return received

        cp = w.sim.spawn(pipelined_client())
        w.sim.run_until_complete(cp, limit=10**14)
        # TCP preserves order even with 8 outstanding.
        assert cp.value == [b"p-%03d" % i for i in range(n)]

    def test_bidirectional_simultaneous_traffic(self):
        """Both ends push and pop concurrently on one connection."""
        w, client, server = make_dpdk_libos_pair()
        n = 20

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 7)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            got = []
            for i in range(n):
                yield from server.blocking_push(
                    qd, server.sga_alloc(b"s2c-%02d" % i))
                result = yield from server.blocking_pop(qd)
                got.append(result.sga.tobytes())
            return got

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 7)
            got = []
            for i in range(n):
                yield from client.blocking_push(
                    qd, client.sga_alloc(b"c2s-%02d" % i))
                result = yield from client.blocking_pop(qd)
                got.append(result.sga.tobytes())
            return got

        sp = w.sim.spawn(server_proc())
        cp = w.sim.spawn(client_proc())
        w.sim.run_until_complete(cp, limit=10**14)
        w.sim.run_until_complete(sp, limit=10**14)
        assert sp.value == [b"c2s-%02d" % i for i in range(n)]
        assert cp.value == [b"s2c-%02d" % i for i in range(n)]
