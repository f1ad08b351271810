"""An mTCP-style shim: the user-level stack behind the *legacy* POSIX API.

The paper's section 6: "We explored mTCP but found it to be too
expensive; for example, its latency was higher than the Linux kernel's."
(claim C5).  The reason is structural, and this shim models it: mTCP runs
the TCP stack in a dedicated thread and batches work between application
threads and the stack thread, so every socket operation pays

* a cross-thread queue hop (``costs.mtcp_queue_hop_ns``) in each
  direction, and
* a batching delay: requests and responses sit in the exchange queues
  until the stack thread's next event-loop cycle (``costs.mtcp_cycle_ns``
  boundaries), on the request *and* the response path, and
* the POSIX copy between application and stack buffers -

even though the packet processing itself is as cheap as the Demikernel's
(it is literally the same ``repro.netstack``).  Relocating the stack to
user level without replacing the abstraction keeps the old taxes and adds
new ones.
"""

from __future__ import annotations

from typing import Generator

from ..hw.nic import DpdkNic
from ..netstack.stack import NetStack

__all__ = ["MtcpShim"]


class MtcpShim:
    """POSIX sockets over a user-level stack with a stack thread: the
    kernel's socket calls (:meth:`thread`), so a legacy application runs
    on it unchanged."""

    def __init__(self, host, nic: DpdkNic, ip: str, name: str = "mtcp"):
        self.host = host
        self.sim = host.sim
        self.costs = host.costs
        self.tracer = host.tracer
        self.name = name
        self.counters = self.tracer.scope(name)
        self.app_core = host.cpus[0]
        self.stack_core = host.cpus[min(1, len(host.cpus) - 1)]
        self.nic = nic
        self.stack = NetStack(
            sim=self.sim,
            name="%s.stack" % name,
            mac=nic.mac,
            ip=ip,
            send_frame=lambda dst, raw: nic.post_tx(dst, raw),
            tracer=self.tracer,
            charge=self.stack_core.charge_async,
            tx_cost_ns=self.costs.user_net_tx_ns,
            rx_cost_ns=self.costs.user_net_rx_ns,
        )
        #: fd -> what the socket is so far: None, its bound port, then a
        #: TcpListener or a TcpConnection
        self._fds = {}
        self._next_fd = 3
        self.sim.spawn(self._poll_loop(), name="%s.poll" % name)

    def _poll_loop(self) -> Generator:
        while True:
            yield self.nic.rx_signal()
            yield self.stack_core.busy(self.costs.dpdk_poll_ns)
            for frame in self.nic.rx_burst(32):
                self.stack.rx_frame(frame)

    def _exchange(self) -> Generator:
        """One hop through the batched app<->stack queues.

        The stack thread drains its queues once per event-loop cycle, so
        the request waits for the next cycle boundary before the hop
        completes.
        """
        self.counters.queue_hops += 2
        yield self.app_core.busy(self.costs.mtcp_queue_hop_ns)
        cycle = self.costs.mtcp_cycle_ns
        wait_for_cycle = cycle - (self.sim.now % cycle)
        yield self.sim.timeout(wait_for_cycle)
        yield self.stack_core.busy(self.costs.mtcp_queue_hop_ns)

    # -- the legacy API: the kernel's socket calls, on fds --------------------
    def thread(self) -> "MtcpShim":
        """An application thread's socket calls: the shim's own."""
        return self

    def _install(self, endpoint) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = endpoint
        return fd

    # socket, bind and listen are control path: no stack-thread hop
    def socket(self) -> Generator:
        yield from ()
        return self._install(None)

    def bind(self, fd: int, port: int) -> Generator:
        yield from ()
        self._fds[fd] = port

    def listen(self, fd: int, backlog: int = 128) -> Generator:
        yield from ()
        self._fds[fd] = self.stack.tcp_listen(self._fds[fd], backlog)

    def accept(self, fd: int) -> Generator:
        """Blocking accept; returns a new connected fd."""
        listener = self._fds[fd]
        yield from self._exchange()
        while True:
            conn = listener.accept_nb()
            if conn is not None:
                return self._install(conn)
            yield listener.accept_signal()

    def connect(self, fd: int, ip: str, port: int) -> Generator:
        yield from self._exchange()
        conn = self._fds[fd] = self.stack.tcp_connect(ip, port)
        yield conn.established
        yield from self._exchange()

    def send(self, fd: int, data: bytes) -> Generator:
        conn = self._fds[fd]
        # POSIX semantics force the copy into stack-owned buffers.
        yield self.app_core.busy(self.costs.copy_ns(len(data)))
        self.counters.bytes_copied_tx += len(data)
        yield from self._exchange()
        conn.send(bytes(data))
        return len(data)

    def recv(self, fd: int, max_bytes: int = 65536) -> Generator:
        """Blocking stream recv: returns whatever bytes are available;
        b'' means the peer closed.

        The batching penalty lands on the *response* path: data sits in
        the stack thread's buffers until its next cycle hands it over.
        """
        conn = self._fds[fd]
        while True:
            data = conn.recv(max_bytes)
            if data:
                break
            if conn.peer_closed or conn.error is not None:
                return b""
            yield conn.recv_signal()
        yield from self._exchange()
        yield self.app_core.busy(self.costs.copy_ns(len(data)))
        self.counters.bytes_copied_rx += len(data)
        return data

    def close(self, fd: int) -> Generator:
        """Close a connection or a listener."""
        endpoint = self._fds.pop(fd)
        yield from self._exchange()
        endpoint.close()
