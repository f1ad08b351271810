"""Tests for kernel epoll: readiness, level triggering, the wake-up herd."""

from repro.kernelos.kernel import EWOULDBLOCK

from ..conftest import make_kernel_pair


def setup_server_with_clients(w, ka, kb, n_clients=1, port=80):
    """Spawn clients that connect and later send one message each.

    Returns (listen_fd_holder, client_processes).
    """
    def client(i):
        sys = ka.thread(ka.host.cpus[min(i, len(ka.host.cpus) - 1)])
        fd = yield from sys.socket()
        yield from sys.connect(fd, "10.0.0.2", port)
        yield w.sim.timeout(1_000_000 + i * 100_000)
        yield from sys.send(fd, b"msg-%d" % i)
        yield w.sim.timeout(50_000_000)  # hold the connection open

    return [w.sim.spawn(client(i), name="client%d" % i) for i in range(n_clients)]


class TestEpollBasics:
    def test_epoll_reports_readable_connection(self):
        w, ka, kb = make_kernel_pair()
        setup_server_with_clients(w, ka, kb, 1)
        result = {}

        def server():
            sys = kb.thread()
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 80)
            yield from sys.listen(lfd)
            conn_fd = yield from sys.accept(lfd)
            epfd = yield from sys.epoll_create()
            yield from sys.epoll_ctl_add(epfd, conn_fd)
            ready = yield from sys.epoll_wait(epfd)
            assert ready == [conn_fd]
            data = yield from sys.recv_nb(conn_fd)
            result["data"] = data

        w.sim.spawn(server(), name="server")
        w.run()
        assert result["data"] == b"msg-0"

    def test_epoll_on_listener_reports_accept_ready(self):
        w, ka, kb = make_kernel_pair()
        setup_server_with_clients(w, ka, kb, 1)
        result = {}

        def server():
            sys = kb.thread()
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 80)
            yield from sys.listen(lfd)
            epfd = yield from sys.epoll_create()
            yield from sys.epoll_ctl_add(epfd, lfd)
            ready = yield from sys.epoll_wait(epfd)
            result["ready"] = ready
            # Readiness promised a connection: accept returns it without
            # blocking (no wake-up charged).
            blocks = w.tracer.get("server.kernel.blocks")
            result["accepted"] = yield from sys.accept(lfd)
            result["blocked"] = w.tracer.get("server.kernel.blocks") - blocks

        w.sim.spawn(server(), name="server")
        w.run()
        assert result["ready"] == [3]
        assert result["accepted"] > 3 and result["blocked"] == 0


class TestWakeupHerd:
    """The C4 mechanism test: N waiters, one event, how many wake?"""

    def _run_herd(self, n_workers):
        # Dedicated worker cores (core 0 stays the IRQ/softirq core) so
        # every woken worker re-scans at the same instant: the herd size
        # is then deterministic.
        w, ka, kb = make_kernel_pair(cores=n_workers + 1)
        setup_server_with_clients(w, ka, kb, 1)
        stats = {"wakeups": 0, "got_data": 0, "empty": 0}

        def server_main():
            sys = kb.thread()
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 80)
            yield from sys.listen(lfd)
            conn_fd = yield from sys.accept(lfd)
            epfd = yield from sys.epoll_create()
            yield from sys.epoll_ctl_add(epfd, conn_fd)
            for i in range(n_workers):
                core = kb.host.cpus[i + 1]
                w.sim.spawn(worker(kb.thread(core), epfd, conn_fd),
                            name="worker%d" % i)

        def worker(sys, epfd, conn_fd):
            ready = yield from sys.epoll_wait(epfd)
            stats["wakeups"] += 1
            if ready:
                data = yield from sys.recv_nb(conn_fd)
                if data is not EWOULDBLOCK and data:
                    stats["got_data"] += 1
                else:
                    stats["empty"] += 1

        w.sim.spawn(server_main(), name="server")
        w.run()
        return stats

    def test_single_worker_no_waste(self):
        stats = self._run_herd(1)
        assert stats == {"wakeups": 1, "got_data": 1, "empty": 0}

    def test_herd_wakes_everyone_but_one_wins(self):
        stats = self._run_herd(4)
        # Level-triggered epoll wakes all four; exactly one gets the data.
        assert stats["wakeups"] == 4
        assert stats["got_data"] == 1
        assert stats["empty"] == 3
