"""Edge-case tests across the library OSes: errors, close paths, misuse."""

import pytest

from repro.core.types import DemiError

from ..conftest import (
    make_dpdk_libos_pair,
    make_mtcp_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
)


def run(w, gen, limit=10**12):
    p = w.sim.spawn(gen)
    w.sim.run_until_complete(p, limit=limit)
    return p.value


def _join(proc):
    return (yield proc)


class TestDpdkEdges:
    def test_unknown_protocol_rejected(self):
        w, client, _server = make_dpdk_libos_pair()

        def proc():
            with pytest.raises(DemiError):
                yield from client.socket("sctp")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_push_before_connect_errors(self):
        w, client, _server = make_dpdk_libos_pair()

        def proc():
            qd = yield from client.socket()
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x"))
            return result.error

        assert run(w, proc()) == "not connected"

    def test_udp_push_without_remote_errors(self):
        w, client, _server = make_dpdk_libos_pair()

        def proc():
            qd = yield from client.socket("udp")
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x"))
            return result.error

        assert run(w, proc()) == "no remote address"

    def test_push_to_on_tcp_rejected(self):
        w, client, _server = make_dpdk_libos_pair()

        def proc():
            qd = yield from client.socket("tcp")
            with pytest.raises(DemiError):
                client.push_to(qd, client.sga_alloc(b"x"), ("10.0.0.2", 1))
            return "checked"

        assert run(w, proc()) == "checked"

    def test_push_on_listening_queue_errors(self):
        w, _client, server = make_dpdk_libos_pair()

        def proc():
            qd = yield from server.socket()
            yield from server.bind(qd, 80)
            yield from server.listen(qd)
            result = yield from server.blocking_push(
                qd, server.sga_alloc(b"x"))
            return result.error

        assert run(w, proc()) == "push on listening queue"

    def test_listen_without_bind_rejected(self):
        w, _client, server = make_dpdk_libos_pair()

        def proc():
            qd = yield from server.socket()
            with pytest.raises(DemiError):
                yield from server.listen(qd)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_accept_on_connected_queue_rejected(self):
        w, client, server = make_dpdk_libos_pair()

        def server_proc():
            qd = yield from server.socket()
            yield from server.bind(qd, 80)
            yield from server.listen(qd)
            yield from server.accept(qd)

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 80)
            with pytest.raises(DemiError):
                yield from client.accept(qd)
            return "checked"

        w.sim.spawn(server_proc())
        assert run(w, client_proc()) == "checked"

    def test_close_listening_queue_releases_port(self):
        w, _client, server = make_dpdk_libos_pair()

        def proc():
            qd = yield from server.socket()
            yield from server.bind(qd, 80)
            yield from server.listen(qd)
            yield from server.close(qd)
            # Port 80 is free again:
            qd2 = yield from server.socket()
            yield from server.bind(qd2, 80)
            yield from server.listen(qd2)
            return "rebound"

        assert run(w, proc()) == "rebound"


class TestRdmaEdges:
    def test_push_before_connect_errors(self):
        w, client, _server = make_rdma_libos_pair()

        def proc():
            qd = yield from client.socket()
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x"))
            return result.error

        assert run(w, proc()) == "not connected"

    def test_connect_refused_without_listener(self):
        from repro.rdma.verbs import VerbsError
        w, client, _server = make_rdma_libos_pair()

        def proc():
            qd = yield from client.socket()
            with pytest.raises(VerbsError):
                yield from client.connect(qd, "server-rdma", 99)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_close_connected_queue(self):
        w, client, server = make_rdma_libos_pair()

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            yield from server.accept(lqd)

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            yield from client.close(qd)
            with pytest.raises(DemiError):
                client.pop(qd)
            return "checked"

        w.sim.spawn(server_proc())
        assert run(w, client_proc()) == "checked"

    def test_push_from_last_slot_of_registered_region(self):
        # The wire message is header + payload, but the NIC DMA-reads the
        # element's own buffer: translating header-many bytes past it
        # faulted on an element that ends exactly at its region's end.
        w, client, server = make_rdma_libos_pair()

        def server_proc():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 1)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)
            result = yield from server.blocking_pop(qd)
            return result.sga.tobytes()

        def client_proc():
            qd = yield from client.socket()
            yield from client.connect(qd, "server-rdma", 1)
            mm = client.host.mm
            region = mm.regions[-1]
            mm.alloc(region.size - region.used - 1024)
            sga = client.sga_alloc(b"x" * 1024)
            addr, size = sga.dma_ranges()[0]
            assert addr + size == region.base + region.size
            before = w.tracer.get("client.rdma0.mr.translations")
            result = yield from client.blocking_push(qd, sga)
            # Still exactly one translation per push.
            assert w.tracer.get("client.rdma0.mr.translations") == before + 1
            return result.error

        served = w.sim.spawn(server_proc())
        assert run(w, client_proc()) is None
        assert run(w, _join(served)) == b"x" * 1024
        assert w.tracer.get("client.rdma0.mr.faults") == 0


class TestPosixLibosEdges:
    def test_only_tcp_supported(self):
        w, client, _server = make_posix_libos_pair()

        def proc():
            with pytest.raises(DemiError):
                yield from client.socket("udp")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_push_before_connect_errors(self):
        w, client, _server = make_posix_libos_pair()

        def proc():
            qd = yield from client.socket()
            result = yield from client.blocking_push(
                qd, client.sga_alloc(b"x"))
            return result.error

        assert run(w, proc()) == "not connected"


class TestMtcpEdges:
    def test_exchange_waits_for_cycle_boundary(self):
        w, client, _server = make_mtcp_pair()
        cycle = w.costs.mtcp_cycle_ns

        def proc():
            start = w.sim.now
            yield from client._exchange()
            return w.sim.now - start

        p = w.sim.spawn(proc())
        w.sim.run_until_complete(p, limit=10**12)
        # Hop + wait-to-boundary + hop; at t=0 the wait is a full cycle.
        assert p.value >= cycle

    def test_recv_after_close_returns_empty(self):
        w, client, server = make_mtcp_pair()

        def server_proc():
            sys = server.thread()
            listen_fd = yield from sys.socket()
            yield from sys.bind(listen_fd, 7)
            yield from sys.listen(listen_fd)
            fd = yield from sys.accept(listen_fd)
            yield from sys.close(fd)

        def client_proc():
            sys = client.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 7)
            data = yield from sys.recv(fd)
            return data

        w.sim.spawn(server_proc())
        assert run(w, client_proc()) == b""
