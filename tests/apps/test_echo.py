"""Tests for the echo applications across all four stacks."""

from repro.apps.echo import (
    demi_echo_client,
    demi_echo_server,
    mtcp_echo_client,
    mtcp_echo_server,
    posix_echo_client,
    posix_echo_server,
)

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
        assert sp.value == 3
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

    def test_rtt_stats_are_positive_and_ordered(self):
        w, client, server = make_dpdk_libos_pair()
        w.sim.spawn(demi_echo_server(server, max_requests=10))
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2",
                                          [b"m"] * 10))
        w.run()
        _, stats = cp.value
        assert stats.minimum > 0
        assert stats.p50 <= stats.p99 <= stats.maximum


class TestPosixEcho:
    def test_kernel_sockets(self):
        w, ka, kb = make_kernel_pair()
        sp = w.sim.spawn(posix_echo_server(kb, max_requests=3))
        cp = w.sim.spawn(posix_echo_client(ka, "10.0.0.2", MESSAGES))
        w.run()
        replies, _ = cp.value
        assert replies == MESSAGES
        assert sp.value == 3


class TestMtcpEcho:
    def test_mtcp_shim(self):
        w, client, server = make_mtcp_pair()
        sp = w.sim.spawn(mtcp_echo_server(server, max_requests=3))
        cp = w.sim.spawn(mtcp_echo_client(client, "10.0.0.2", MESSAGES))
        w.run()
        replies, _ = cp.value
        assert replies == MESSAGES
        assert sp.value == 3

    def test_mtcp_pays_hops_and_copies(self):
        w, client, server = make_mtcp_pair()
        w.sim.spawn(mtcp_echo_server(server, max_requests=2))
        cp = w.sim.spawn(mtcp_echo_client(client, "10.0.0.2", [b"x" * 1000] * 2))
        w.run()
        assert w.tracer.get("client.mtcp.queue_hops") > 0
        assert w.tracer.get("client.mtcp.bytes_copied_tx") == 2000


class TestTheC5Ordering:
    def test_mtcp_slower_than_kernel_slower_than_demikernel(self):
        """Claim C5: POSIX-preserving user stack loses to the kernel;
        the new abstraction (Demikernel DPDK libOS) beats both."""
        messages = [b"q" * 64] * 10

        w1, ka, kb = make_kernel_pair()
        w1.sim.spawn(posix_echo_server(kb, max_requests=10))
        cp1 = w1.sim.spawn(posix_echo_client(ka, "10.0.0.2", messages))
        w1.run()
        kernel_rtt = cp1.value[1].p50

        w2, ma, mb = make_mtcp_pair()
        w2.sim.spawn(mtcp_echo_server(mb, max_requests=10))
        cp2 = w2.sim.spawn(mtcp_echo_client(ma, "10.0.0.2", messages))
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

