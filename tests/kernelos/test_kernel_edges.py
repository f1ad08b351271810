"""Edge-case tests for the kernel: fd misuse, dispatch errors, backlog."""

import pytest

from repro.kernelos.kernel import KernelError

from ..conftest import World, make_kernel_pair


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestFdTable:
    def test_close_bad_fd_raises(self):
        w, ka, _ = make_kernel_pair()

        def proc():
            sys = ka.thread()
            with pytest.raises(KernelError):
                yield from sys.close(99)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_fd_kind_mismatch_raises(self):
        w, ka, _ = make_kernel_pair()

        def proc():
            sys = ka.thread()
            fd = yield from sys.socket()
            with pytest.raises(KernelError):
                yield from sys.epoll_wait(fd)  # a socket, not an epoll
            return "checked"

        assert run(w, proc()) == "checked"

    def test_fds_are_monotone_from_three(self):
        w, ka, _ = make_kernel_pair()

        def proc():
            sys = ka.thread()
            fd1 = yield from sys.socket()
            fd2 = yield from sys.socket()
            return fd1, fd2

        fd1, fd2 = run(w, proc())
        assert fd1 == 3 and fd2 == 4


class TestDispatchErrors:
    def make_host_kernel(self):
        from repro.kernelos.kernel import Kernel
        w = World()
        host = w.add_host("h")
        kernel = Kernel(host, w.fabric, "02:00:00:00:08:01", "10.0.0.9")
        return w, kernel

    def test_read_on_socket_fd_raises(self):
        w, kernel = self.make_host_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.socket()
            with pytest.raises(KernelError):
                yield from sys.read(fd, 10)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_write_on_socket_fd_raises(self):
        w, kernel = self.make_host_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.socket()
            with pytest.raises(KernelError):
                yield from sys.write(fd, b"wrong way")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_file_ops_without_filesystem_raise(self):
        w, kernel = self.make_host_kernel()
        assert kernel.vfs is None

        def proc():
            sys = kernel.thread()
            with pytest.raises(KernelError):
                yield from sys.creat("/nofs")
            return "checked"

        assert run(w, proc()) == "checked"


# Each misuse of a descriptor, against one socket, one epoll fd and one
# closed fd: the call raises KernelError instead of touching the object.
MISUSE = {
    "read-epoll": lambda sys, fds: sys.read(fds["epoll"], 10),
    "write-epoll": lambda sys, fds: sys.write(fds["epoll"], b"x"),
    "fsync-socket": lambda sys, fds: sys.fsync(fds["socket"]),
    "lseek-socket": lambda sys, fds: sys.lseek(fds["socket"], 0),
    "send-epoll": lambda sys, fds: sys.send(fds["epoll"], b"x"),
    "send-unconnected": lambda sys, fds: sys.send(fds["socket"], b"x"),
    "recv-unconnected": lambda sys, fds: sys.recv(fds["socket"]),
    "recv_nb-unconnected": lambda sys, fds: sys.recv_nb(fds["socket"]),
    "listen-before-bind": lambda sys, fds: sys.listen(fds["socket"]),
    "accept-not-listening": lambda sys, fds: sys.accept(fds["socket"]),
    "epoll_ctl_add-on-socket": lambda sys, fds: sys.epoll_ctl_add(
        fds["socket"], fds["socket"]),
    "read-closed": lambda sys, fds: sys.read(fds["closed"], 10),
    "close-twice": lambda sys, fds: sys.close(fds["closed"]),
}


class TestMisuse:
    @pytest.mark.parametrize("call", sorted(MISUSE))
    def test_misuse_raises(self, call):
        w, ka, _ = make_kernel_pair()

        def proc():
            sys = ka.thread()
            fds = {"socket": (yield from sys.socket()),
                   "epoll": (yield from sys.epoll_create()),
                   "closed": (yield from sys.socket())}
            yield from sys.close(fds["closed"])
            with pytest.raises(KernelError):
                yield from MISUSE[call](sys, fds)
            return "checked"

        assert run(w, proc()) == "checked"


class TestReclaimFds:
    def test_crash_teardown_closes_every_fd_kind(self):
        w, ka, _ = make_kernel_pair()

        def proc():
            sys = ka.thread()
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 80)
            yield from sys.listen(lfd)
            yield from sys.socket()
            yield from sys.epoll_create()
            return lfd

        lfd = run(w, proc())
        counters = w.tracer.scope(ka.host.name).scope("reclaim")
        assert ka.reclaim_fds(counters) == 3
        assert ka._fds == {}
        prefix = "%s.reclaim." % ka.host.name
        assert w.tracer.get(prefix + "fds_closed") == 3
        assert w.tracer.get(prefix + "listeners_closed") == 1
        # Nothing was connected, so there was nobody to reset.
        assert w.tracer.get(prefix + "tcp_rsts") == 0

        def rebind():
            # The listener's port was let go with it.
            sys = ka.thread()
            fd = yield from sys.socket()
            assert fd > lfd
            yield from sys.bind(fd, 80)
            yield from sys.listen(fd)
            return "rebound"

        assert run(w, rebind()) == "rebound"


class TestAcceptBacklog:
    def test_listener_backlog_overflow_resets_extras(self):
        w, ka, kb = make_kernel_pair()

        def server():
            sys = kb.thread()
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 80)
            yield from sys.listen(lfd, backlog=1)
            yield w.sim.timeout(50_000_000)  # never accept

        def client(i):
            sys = ka.thread(ka.host.cpus[min(i, 3)])
            fd = yield from sys.socket()
            try:
                yield from sys.connect(fd, "10.0.0.2", 80)
                return "connected"
            except Exception:
                return "refused"

        w.sim.spawn(server())
        procs = [w.sim.spawn(client(i)) for i in range(3)]
        w.run(until=60_000_000)
        # The handshake itself completes (SYN cookies would behave the
        # same way), but the listener aborts everything past the backlog:
        # overflowing connections get reset right after establishing.
        assert w.tracer.get("server.kstack.tcp_accept_overflow") == 2
        # Only the one queued connection survives on the client stack.
        assert len(ka.stack._tcp_conns) <= 1
