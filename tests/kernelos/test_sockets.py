"""Tests for kernel TCP sockets: semantics and cost accounting."""

import pytest

from repro.kernelos.kernel import EWOULDBLOCK, KernelError

from ..conftest import make_kernel_pair


def run_pair(w, client_gen, server_gen):
    cp = w.sim.spawn(client_gen, name="client")
    sp = w.sim.spawn(server_gen, name="server")
    w.run()
    assert cp.triggered and sp.triggered
    return cp.value, sp.value


class TestTcpSockets:
    def test_connect_accept_send_recv(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            data = yield from sys.recv(conn_fd)
            yield from sys.send(conn_fd, data.upper())
            return data

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            yield from sys.send(fd, b"hello kernel")
            reply = yield from sys.recv(fd)
            return reply

        creply, sdata = run_pair(w, client(), server())
        assert sdata == b"hello kernel"
        assert creply == b"HELLO KERNEL"

    def test_each_operation_costs_a_syscall(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            yield from sys.recv(conn_fd)

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            yield from sys.send(fd, b"x")

        run_pair(w, client(), server())
        # client: socket, connect, send = 3 syscalls
        assert w.tracer.get("client.kernel.syscalls") == 3
        # server: socket, bind, listen, accept, recv = 5
        assert w.tracer.get("server.kernel.syscalls") == 5

    def test_send_and_recv_copy_bytes(self):
        w, ka, kb = make_kernel_pair()
        payload = b"c" * 4096

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            return (yield from sys.recv(conn_fd, 100000))

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            yield from sys.send(fd, payload)

        _, received = run_pair(w, client(), server())
        assert received == payload
        assert w.tracer.get("client.kernel.bytes_copied_tx") == 4096
        assert w.tracer.get("server.kernel.bytes_copied_rx") == 4096

    def test_recv_returns_empty_on_peer_close(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            first = yield from sys.recv(conn_fd)
            second = yield from sys.recv(conn_fd)
            return first, second

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            yield from sys.send(fd, b"bye")
            yield from sys.close(fd)

        _, (first, second) = run_pair(w, client(), server())
        assert first == b"bye"
        assert second == b""

    def test_recv_nb_wouldblock_when_no_data(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            return (yield from sys.recv_nb(conn_fd))

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            yield w.sim.timeout(10_000_000)  # keep alive, send nothing

        _, result = run_pair(w, client(), server())
        assert result is EWOULDBLOCK
        assert w.tracer.get("server.kernel.ewouldblock") == 1

    def test_bad_fd_raises(self):
        w, ka, _kb = make_kernel_pair()

        def proc():
            sys = ka.thread()
            with pytest.raises(KernelError):
                yield from sys.send(99, b"x")
            return "checked"

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == "checked"

    def test_listen_before_bind_rejected(self):
        w, ka, _kb = make_kernel_pair()

        def proc():
            sys = ka.thread()
            fd = yield from sys.socket()
            with pytest.raises(KernelError):
                yield from sys.listen(fd)
            return "checked"

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == "checked"

    def test_kernel_rtt_includes_interrupts(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            fd = yield from sys.socket()
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            conn_fd = yield from sys.accept(fd)
            data = yield from sys.recv(conn_fd)
            yield from sys.send(conn_fd, data)

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            start = w.sim.now
            yield from sys.send(fd, b"ping")
            yield from sys.recv(fd)
            return w.sim.now - start

        rtt, _ = run_pair(w, client(), server())
        # Kernel-path echo RTT lands in the tens of microseconds.
        assert rtt > 15_000
        assert w.tracer.get("server.eth0.rx_interrupts") > 0
