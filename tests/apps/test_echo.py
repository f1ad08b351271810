"""Tests for the two echo applications across all five stacks."""

import pytest

from repro.apps.echo import (
    demi_echo_client,
    demi_echo_server,
    posix_echo_client,
    posix_echo_server,
)
from repro.core.types import DemiError
from repro.sim.faults import FaultEvent, FaultPlan

from ..conftest import (
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_mtcp_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
)


MESSAGES = [b"alpha", b"bravo", b"charlie"]


class TestDemiEcho:
    def test_dpdk(self):
        w, client, server = make_dpdk_libos_pair()
        sp = w.sim.spawn(demi_echo_server(server, max_requests=3))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", MESSAGES))
        w.run()
        replies, stats = cp.value
        assert replies == MESSAGES
        assert sp.value == (3, "served-all")
        assert stats.count == 3

    def test_rdma(self):
        w, client, server = make_rdma_libos_pair()
        w.sim.spawn(demi_echo_server(server, max_requests=3))
        cp = w.sim.spawn(demi_echo_client(client, "server-rdma", MESSAGES))
        w.run()
        replies, _ = cp.value
        assert replies == MESSAGES

    def test_posix_libos(self):
        w, client, server = make_posix_libos_pair()
        w.sim.spawn(demi_echo_server(server, max_requests=3))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", MESSAGES))
        w.run()
        replies, _ = cp.value
        assert replies == MESSAGES

    def test_failed_push_is_not_served(self):
        # The server's frames stop reaching the client after the connect,
        # so its one echo exhausts the RDMA retries: the push fails, the
        # session ends, and nothing counts as served.
        w, client, server = make_rdma_libos_pair()
        w.install_faults(FaultPlan(seed=1).add(FaultEvent(
            "partition", 80_000, 10**12, src="server-rdma")))
        sp = w.sim.spawn(demi_echo_server(server, max_requests=1))

        def one_message():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 7)
            assert w.sim.now < 80_000
            yield w.sim.timeout(100_000 - w.sim.now)
            yield from client.blocking_push(qd, client.sga_alloc(b"lost"))

        w.sim.spawn(one_message())
        w.run(until=10**9)
        assert w.tracer.get("server.catmint.rdma_rx_elements") == 1
        assert w.tracer.get("server.rdma0.qp_errors") == 1
        assert not sp.alive
        assert sp.value == (0, "retry-exceeded")

    @pytest.mark.parametrize("make_pair,addr", [
        (make_dpdk_libos_pair, "10.0.0.2"),
        (make_posix_libos_pair, "10.0.0.2"),
        (make_rdma_libos_pair, "server-rdma"),
    ], ids=["dpdk", "posix", "rdma"])
    def test_idle_peer_times_out_and_closes_everything(self, make_pair,
                                                       addr):
        # A client that connects and never sends: the idle backstop
        # cancels the parked pop, and the server closes both its queues.
        w, client, server = make_pair()
        sp = w.sim.spawn(demi_echo_server(server, max_requests=3,
                                          idle_timeout_ns=2_000_000))

        def connect_and_idle():
            qd = yield from client.socket()
            yield from client.connect(qd, addr, 7)

        w.sim.spawn(connect_and_idle())
        w.sim.run_until_complete(sp, limit=10**9)
        assert sp.value == (0, "idle-timeout")
        assert server.qtokens.in_flight == 0
        assert server.qtokens.identity_ok
        assert not server._queues

    def test_failed_pop_raises(self):
        # The server echoes one of three messages and closes: the client's
        # second pop fails, which ends the session with an error.
        w, client, server = make_dpdk_libos_pair()

        def one_echo_then_close():
            listen_qd = yield from server.socket()
            yield from server.bind(listen_qd, 7)
            yield from server.listen(listen_qd)
            qd = yield from server.accept(listen_qd)
            result = yield from server.blocking_pop(qd)
            yield from server.blocking_push(qd, result.sga)
            server.sga_free(result.sga)
            yield from server.close(qd)

        w.sim.spawn(one_echo_then_close())
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", MESSAGES))
        with pytest.raises(DemiError, match="echo connection lost"):
            w.sim.run_until_complete(cp, limit=10**12)

    def test_rtt_stats_are_positive_and_ordered(self):
        w, client, server = make_dpdk_libos_pair()
        w.sim.spawn(demi_echo_server(server, max_requests=10))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2",
                                          [b"m"] * 10))
        w.run()
        _, stats = cp.value
        assert stats.minimum > 0
        assert stats.p50 <= stats.p99 <= stats.maximum


@pytest.mark.parametrize("make_pair", [make_kernel_pair, make_mtcp_pair],
                         ids=["kernel", "mtcp"])
class TestLegacyEcho:
    """One legacy application, unchanged on kernel sockets and on the
    mTCP shim's copy of them."""

    def test_echoes_every_message(self, make_pair):
        w, client, server = make_pair()
        sp = w.sim.spawn(posix_echo_server(server))
        cp = w.sim.spawn(posix_echo_client(client, "10.0.0.2", MESSAGES))
        w.run()
        replies, _ = cp.value
        assert replies == MESSAGES
        assert sp.value == 3

    def test_pays_copies_and_only_mtcp_pays_hops(self, make_pair):
        w, client, server = make_pair()
        w.sim.spawn(posix_echo_server(server))
        w.sim.spawn(posix_echo_client(client, "10.0.0.2", [b"x" * 1000] * 2))
        w.run()
        prefix = client.counters.prefix
        assert w.tracer.get(prefix + ".bytes_copied_tx") == 2000
        # The stack thread's cross-thread queues are the shim's own tax.
        hops = w.tracer.get(prefix + ".queue_hops")
        assert (hops > 0) == (make_pair is make_mtcp_pair)


class TestTheC5Ordering:
    def test_mtcp_slower_than_kernel_slower_than_demikernel(self):
        """Claim C5: POSIX-preserving user stack loses to the kernel;
        the new abstraction (Demikernel DPDK libOS) beats both."""
        messages = [b"q" * 64] * 10

        w1, ka, kb = make_kernel_pair()
        w1.sim.spawn(posix_echo_server(kb))
        cp1 = w1.sim.spawn(posix_echo_client(ka, "10.0.0.2", messages))
        w1.run()
        kernel_rtt = cp1.value[1].p50

        w2, ma, mb = make_mtcp_pair()
        w2.sim.spawn(posix_echo_server(mb))
        cp2 = w2.sim.spawn(posix_echo_client(ma, "10.0.0.2", messages))
        w2.run()
        mtcp_rtt = cp2.value[1].p50

        w3, da, db = make_dpdk_libos_pair()
        w3.sim.spawn(demi_echo_server(db, max_requests=10))
        cp3 = w3.sim.spawn(demi_echo_client(da, "10.0.0.2", messages))
        w3.run()
        demi_rtt = cp3.value[1].p50

        assert mtcp_rtt > kernel_rtt          # "latency higher than Linux"
        assert demi_rtt * 3 < kernel_rtt      # the gap the paper targets
        assert demi_rtt * 3 < mtcp_rtt

