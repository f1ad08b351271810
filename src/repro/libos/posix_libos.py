"""The POSIX library OS ("Catnap"): Demikernel queues over kernel sockets.

The portability floor of the Demikernel: on a host with no kernel-bypass
hardware at all, the same Figure-3 application runs over ordinary kernel
sockets.  Every element still pays the legacy taxes underneath (syscalls,
copies, the in-kernel stack) - which is exactly what makes it the honest
baseline in cross-libOS benchmarks - but the *application* is unchanged.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.api import LibOS
from ..core.queue import DemiQueue, ListeningQueue
from ..core.types import OP_PUSH, DemiError, QResult, QToken, Sga
from ..kernelos.kernel import Kernel, KernelError
from ..netstack.framing import Deframer, frame_message
from ..telemetry import names

__all__ = ["PosixLibOS"]


class PosixTcpQueue(DemiQueue):
    """A kernel TCP connection behind the queue abstraction."""

    kind = "posix-tcp"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.fd: Optional[int] = None
        self.deframer = Deframer()

    def attach_fd(self, fd: int) -> None:
        self.fd = fd
        self._spawn_pump(self._rx_pump(), "rx")

    def push_sga(self, sga: Sga, token: QToken) -> None:
        if self.fd is None:
            self._complete(token, QResult(OP_PUSH, self.qd,
                                          error="not connected"))
            return
        self.sim.spawn(self._push_driver(sga, token),
                       name="%s.q%d.tx" % (self.libos.name, self.qd))

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        libos = self.libos
        if self.closed:  # died in the instant it pushed: the element is gone
            self._complete(token, QResult(OP_PUSH, self.qd, error="closed"))
            return
        # The POSIX path cannot avoid the copy: send() copies the gathered
        # element into the kernel socket buffer.
        payload = sga.tobytes()
        libos.core.charge_async(libos.costs.framing_ns)
        try:
            yield from libos.sys.send(self.fd, frame_message(payload))
        except Exception as err:
            libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                                  error=str(err)))
            return
        libos.counters.tcp_tx_elements += 1
        libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                              nbytes=sga.nbytes))

    def _rx_pump(self) -> Generator:
        libos = self.libos
        sys = libos.kernel.thread(libos.core)
        while not self.closed:
            try:
                data = yield from sys.recv(self.fd)
            except KernelError as err:
                # ECONNRESET (or the fd vanished in crash reclamation):
                # waiting pops observe the reset, not a clean eof.
                self.fail_pops(str(err))
                return
            if not data:
                self.mark_eof()
                return
            libos.core.charge_async(libos.costs.framing_ns)
            for message in self.deframer.feed(data):
                self.deliver_payload(message, names.TCP_RX_ELEMENTS)

    def bind(self, port: int) -> Generator:
        # The descriptor becomes a passive socket; the kernel hears of it
        # at listen().
        self.libos._seat(self.qd, PosixListenQueue, port)
        yield self.libos.core.busy(0)

    def connect(self, ip: str, port: int) -> Generator:
        sys = self.libos.sys
        fd = yield from sys.socket()
        yield from sys.connect(fd, ip, port)
        self.attach_fd(fd)
        self.libos.counters.connects += 1
        return 0

    def shutdown(self) -> Generator:
        if self.fd is not None:
            yield from self.libos.sys.close(self.fd)

    # crash_abort: the inherited reap() is all there is to do - the
    # kernel's own fd-table walk (``Kernel.reclaim_fds``) aborts the socket
    # underneath, exactly as exit(2) would.


class PosixListenQueue(ListeningQueue):
    """A kernel listening socket behind the queue abstraction."""

    kind = "posix-listen"
    fd: Optional[int] = None   # the kernel socket, once listening

    def listen(self, backlog: int = 128) -> Generator:
        if self.fd is not None:
            raise self._refused("listen again on")
        sys = self.libos.sys
        fd = yield from sys.socket()
        yield from sys.bind(fd, self.port)
        yield from sys.listen(fd, backlog)
        self.fd = fd

    def accept(self) -> Generator:
        if self.fd is None:
            raise self._refused("accept on non-listening")
        conn_fd = yield from self.libos.sys.accept(self.fd)
        new_queue = self.libos._install(PosixTcpQueue)
        new_queue.attach_fd(conn_fd)
        self.libos.counters.accepts += 1
        return new_queue.qd

    def shutdown(self) -> Generator:
        if self.fd is not None:
            yield from self.libos.sys.close(self.fd)


class PosixLibOS(LibOS):
    """Demikernel API over the legacy kernel (no bypass hardware)."""

    device_kind = "legacy-kernel"

    def __init__(self, host, kernel: Kernel, name: str = "catnap"):
        super().__init__(host, name)
        self.kernel = kernel
        self.sys = kernel.thread(self.core)

    def socket(self, proto: str = "tcp") -> Generator:
        if proto != "tcp":
            raise DemiError("%s supports only TCP sockets" % self.name)
        queue = self._install(PosixTcpQueue)
        yield self.core.busy(0)
        return queue.qd
