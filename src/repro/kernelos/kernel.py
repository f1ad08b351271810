"""The legacy OS kernel: the baseline the paper's Figure 1 (left) shows.

Every I/O here pays the traditional taxes the Demikernel removes:

* a user/kernel privilege crossing per syscall (``costs.syscall_ns``);
* a data copy between user and kernel buffers on every send/recv
  (``costs.copy_ns`` - the paper's 1 us / 4 KB);
* the in-kernel network stack per packet (``kernel_net_tx/rx``) plus a
  hardware interrupt per received frame;
* scheduler wake-ups and context switches around blocking calls, with
  epoll's wake-everyone behaviour on shared sockets (claim C4).

Protocol behaviour is *identical* to the user-level stack (it literally
runs ``repro.netstack``); only placement costs differ.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..hw.nic import KernelNic
from ..netstack.stack import NetStack
from ..sim.cpu import Core
from ..sim.sync import WaitQueue
from ..telemetry import names

__all__ = ["Kernel", "Syscalls", "KernelError", "EWOULDBLOCK"]

#: sentinel for non-blocking operations that would block
EWOULDBLOCK = object()


class KernelError(Exception):
    """Bad file descriptor, illegal socket state, and friends."""


class KObject:
    """What sits behind a file descriptor; each kind knows how it ends."""

    kind = "none"

    def release(self, kernel: "Kernel") -> None:
        """``close(2)``: let go of what the descriptor holds."""

    def abort(self, kernel: "Kernel", counters) -> None:
        """The owning process died (:meth:`Kernel.reclaim_fds`): as
        :meth:`release`, but a peer must not be left waiting - counting
        what was severed on *counters* (the host's ``reclaim`` scope)."""
        self.release(kernel)


class _KTcpSocket(KObject):
    kind = "tcp"

    def __init__(self):
        self.port: Optional[int] = None
        self.listener = None      # netstack TcpListener once listening
        self.conn = None          # netstack TcpConnection once connected

    def release(self, kernel: "Kernel") -> None:
        if self.conn is not None:
            self.conn.close()
        if self.listener is not None:
            self.listener.close()

    def abort(self, kernel: "Kernel", counters) -> None:
        # An RST, so the peer observes ECONNRESET instead of hanging
        # until RTO exhaustion.
        if self.conn is not None and self.conn.state != "CLOSED":
            self.conn.abort()
            counters.tcp_rsts += 1
        if self.listener is not None:
            self.listener.close()
            counters.listeners_closed += 1

    def readiness_queues(self) -> List[WaitQueue]:
        queues = []
        if self.listener is not None:
            queues.append(self.listener.accept_wq)
        if self.conn is not None:
            queues.append(self.conn.recv_wq)
        return queues

    def readable(self) -> bool:
        if self.listener is not None and self.listener._accept_queue:
            return True
        if self.conn is not None and (self.conn.readable_bytes
                                      or self.conn.peer_closed
                                      or self.conn.error):
            return True
        return False


class _Epoll(KObject):
    kind = "epoll"

    def __init__(self, sim):
        self.sim = sim
        self.interest: Dict[int, Any] = {}  # fd -> socket object
        self.wq = WaitQueue(sim, "epoll")
        self._hooked: List[WaitQueue] = []

    def watch(self, fd: int, sock: Any) -> None:
        self.interest[fd] = sock
        for src in sock.readiness_queues():
            if src not in self._hooked:
                src.subscribe(self.wq.pulse)
                self._hooked.append(src)

    def scan_ready(self) -> List[int]:
        return [fd for fd, sock in self.interest.items() if sock.readable()]


class Kernel:
    """One host's kernel: NIC driver, sockets, epoll, VFS glue."""

    def __init__(self, host, fabric, mac: str, ip: str):
        self.host = host
        self.sim = host.sim
        self.costs = host.costs
        self.tracer = host.tracer
        self.counters = host.tracer.scope(host.name).scope("kernel")
        self.nic = KernelNic(host, fabric, mac, name="%s.eth0" % host.name)
        host.nics.append(self.nic)
        self.stack = NetStack(
            sim=self.sim,
            name="%s.kstack" % host.name,
            mac=mac,
            ip=ip,
            send_frame=lambda dst, raw: self.nic.post_tx(dst, raw),
            tracer=self.tracer,
            charge=self.nic.irq_core.charge_async,  # softirq core
            tx_cost_ns=self.costs.kernel_net_tx_ns,
            rx_cost_ns=self.costs.kernel_net_rx_ns,
        )
        self.nic.irq_handler = self.stack.rx_frame
        # After a link flap the fabric's MAC tables may have moved; flush
        # the kernel stack's ARP cache so traffic re-resolves first.
        self.nic.on_link_recovered.append(self.stack.relearn_arp)
        self._fds: Dict[int, Any] = {}
        self._next_fd = 3  # 0-2 are stdio, as tradition demands
        self.vfs = None  # attached by repro.kernelos.vfs when storage exists
        host.kernel = self

    # -- fd table -----------------------------------------------------------
    def _install_fd(self, obj: Any) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = obj
        return fd

    def _lookup(self, fd: int, kind: Optional[str] = None) -> Any:
        obj = self._fds.get(fd)
        if obj is None:
            raise KernelError("bad file descriptor %d" % fd)
        if kind is not None and obj.kind != kind:
            raise KernelError("fd %d is a %s, expected %s" % (fd, obj.kind, kind))
        return obj

    def thread(self, core: Optional[Core] = None) -> "Syscalls":
        """A syscall interface bound to the calling thread's core."""
        return Syscalls(self, core or self.host.cpu)

    def reclaim_fds(self, counters) -> None:
        """Crash teardown: close every fd the dead process left open.

        What ``exit(2)`` guarantees and a bypassed kernel cannot: each
        descriptor's :meth:`KObject.abort` - live connections are reset
        and listeners close.  Counts what it did on *counters* (the
        host's ``reclaim`` scope).
        """
        for fd, obj in list(self._fds.items()):
            obj.abort(self, counters)
            del self._fds[fd]
            counters.fds_closed += 1

    def copied(self, direction: str, n: int) -> None:
        """Account one user<->kernel copy: the byte counter, and while
        tracing one sample of the copy's size."""
        self.counters.count(direction, n)
        if self.tracer.tracing:
            self.counters.distribution(names.COPIED_BYTES_PER_OP).add(n)


class Syscalls:
    """POSIX-ish syscalls as sim-coroutines, charged to one core.

    Every call pays the crossing cost; blocking calls pay context-switch
    out and wake-up + context-switch back in, like a real sleeping thread.
    """

    def __init__(self, kernel: Kernel, core: Core):
        self.kernel = kernel
        self.core = core
        self.sim = kernel.sim
        self.costs = kernel.costs

    # -- accounting helpers ---------------------------------------------------
    def _syscall(self, op_ns: int = 0):
        self.kernel.counters.syscalls += 1
        return self.core.busy(self.costs.syscall_ns + op_ns)

    def _block(self, wq_completion):
        """Sleep on a kernel wait queue: switch out, later switch back in."""
        self.kernel.counters.blocks += 1
        self.core.charge_async(self.costs.context_switch_ns)
        return wq_completion

    def _wakeup_charge(self):
        self.kernel.counters.wakeups += 1
        return self.core.busy(self.costs.thread_wakeup_ns +
                              self.costs.context_switch_ns)

    # -- TCP sockets ----------------------------------------------------------
    def socket(self) -> Generator:
        yield self._syscall(self.costs.kernel_sock_op_ns)
        return self.kernel._install_fd(_KTcpSocket())

    def bind(self, fd: int, port: int) -> Generator:
        yield self._syscall(self.costs.kernel_sock_op_ns)
        sock = self.kernel._lookup(fd, "tcp")
        sock.port = port

    def listen(self, fd: int, backlog: int = 128) -> Generator:
        yield self._syscall(self.costs.kernel_sock_op_ns)
        sock = self.kernel._lookup(fd, "tcp")
        if sock.port is None:
            raise KernelError("listen before bind")
        sock.listener = self.kernel.stack.tcp_listen(sock.port, backlog)

    def accept(self, fd: int) -> Generator:
        """Blocking accept; returns a new connected fd."""
        yield self._syscall(self.costs.kernel_sock_op_ns)
        sock = self.kernel._lookup(fd, "tcp")
        if sock.listener is None:
            raise KernelError("accept on non-listening socket")
        while True:
            conn = sock.listener.accept_nb()
            if conn is not None:
                break
            yield self._block(sock.listener.accept_signal())
            yield self._wakeup_charge()
        child = _KTcpSocket()
        child.conn = conn
        return self.kernel._install_fd(child)

    def connect(self, fd: int, ip: str, port: int) -> Generator:
        """Blocking connect; returns when established (or raises)."""
        yield self._syscall(self.costs.kernel_sock_op_ns)
        sock = self.kernel._lookup(fd, "tcp")
        sock.conn = self.kernel.stack.tcp_connect(ip, port)
        yield self._block(sock.conn.established)
        yield self._wakeup_charge()

    def send(self, fd: int, data: bytes) -> Generator:
        """Copying send: user buffer -> kernel socket buffer -> stack."""
        sock = self.kernel._lookup(fd, "tcp")
        if sock.conn is None:
            raise KernelError("send on unconnected socket")
        yield self._syscall(self.costs.kernel_sock_op_ns +
                            self.costs.copy_ns(len(data)))
        self.kernel.copied(names.BYTES_COPIED_TX, len(data))
        sock.conn.send(bytes(data))
        return len(data)

    def recv(self, fd: int, max_bytes: int = 65536) -> Generator:
        """Blocking copying recv; b'' means peer closed."""
        sock = self.kernel._lookup(fd, "tcp")
        if sock.conn is None:
            raise KernelError("recv on unconnected socket")
        yield self._syscall(self.costs.kernel_sock_op_ns)
        while True:
            if sock.conn.error:
                # ECONNRESET and friends: a hard transport death is an
                # error return, not the b"" of a graceful FIN (and an
                # RST discards any buffered bytes, as POSIX does).
                raise KernelError(str(sock.conn.error))
            data = sock.conn.recv(max_bytes)
            if data:
                break
            if sock.conn.peer_closed:
                return b""
            yield self._block(sock.conn.recv_signal())
            yield self._wakeup_charge()
        yield self.core.busy(self.costs.copy_ns(len(data)))
        self.kernel.copied(names.BYTES_COPIED_RX, len(data))
        return data

    def recv_nb(self, fd: int, max_bytes: int = 65536):
        """Non-blocking recv; EWOULDBLOCK when no data is queued."""
        sock = self.kernel._lookup(fd, "tcp")
        if sock.conn is None:
            raise KernelError("recv on unconnected socket")
        yield self._syscall(self.costs.kernel_sock_op_ns)
        if sock.conn.error:
            raise KernelError(str(sock.conn.error))
        data = sock.conn.recv(max_bytes)
        if not data:
            if sock.conn.peer_closed:
                return b""
            self.kernel.counters.ewouldblock += 1
            return EWOULDBLOCK
        yield self.core.busy(self.costs.copy_ns(len(data)))
        self.kernel.copied(names.BYTES_COPIED_RX, len(data))
        return data

    def close(self, fd: int) -> Generator:
        yield self._syscall(self.costs.kernel_sock_op_ns)
        obj = self.kernel._fds.pop(fd, None)
        if obj is None:
            raise KernelError("bad file descriptor %d" % fd)
        obj.release(self.kernel)

    # -- epoll -------------------------------------------------------------------
    def epoll_create(self) -> Generator:
        yield self._syscall()
        return self.kernel._install_fd(_Epoll(self.sim))

    def epoll_ctl_add(self, epfd: int, fd: int) -> Generator:
        yield self._syscall()
        ep = self.kernel._lookup(epfd, "epoll")
        sock = self.kernel._lookup(fd)
        ep.watch(fd, sock)

    # -- files (VFS attached via repro.kernelos.vfs) ---------------------------
    def creat(self, path: str) -> Generator:
        yield self._syscall(self.costs.vfs_op_ns)
        from .vfs import create_file
        return self.kernel._install_fd(create_file(self.kernel, path))

    def read(self, fd: int, nbytes: int) -> Generator:
        obj = self.kernel._lookup(fd)
        yield self._syscall(self.costs.vfs_op_ns)
        if obj.kind == "file":
            return (yield from self.kernel.vfs.read(self.core, obj, nbytes))
        raise KernelError("fd %d not readable via read()" % fd)

    def write(self, fd: int, data: bytes) -> Generator:
        obj = self.kernel._lookup(fd)
        yield self._syscall(self.costs.vfs_op_ns)
        if obj.kind == "file":
            return (yield from self.kernel.vfs.write(self.core, obj, data))
        raise KernelError("fd %d not writable via write()" % fd)

    def fsync(self, fd: int) -> Generator:
        obj = self.kernel._lookup(fd, "file")
        yield self._syscall(self.costs.vfs_op_ns)
        return (yield from self.kernel.vfs.fsync(self.core, obj))

    def lseek(self, fd: int, offset: int) -> Generator:
        obj = self.kernel._lookup(fd, "file")
        yield self._syscall(self.costs.vfs_op_ns)
        if offset < 0:
            raise KernelError("negative seek")
        obj.offset = offset
        return offset

    def epoll_wait(self, epfd: int, max_events: int = 16) -> Generator:
        """Blocking level-triggered wait; returns ready fds.

        Faithfully wakes *every* thread blocked on the same epoll fd when
        any watched fd becomes ready - the herd the paper's wait_any
        abstraction eliminates (one qtoken, one waiter, one wake-up).
        """
        ep = self.kernel._lookup(epfd, "epoll")
        yield self._syscall()
        while True:
            ready = ep.scan_ready()
            if ready:
                yield self.core.busy(self.costs.epoll_event_ns * len(ready))
                self.kernel.counters.epoll_returns += 1
                return ready[:max_events]
            yield self._block(ep.wq.wait())
            yield self._wakeup_charge()
            self.kernel.counters.epoll_wakeups += 1
