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
from ..telemetry import names

__all__ = ["MtcpShim"]


class MtcpShim:
    """POSIX-ish sockets over a user-level stack with a stack thread."""

    def __init__(self, host, nic: DpdkNic, ip: str, name: str = "mtcp"):
        self.host = host
        self.sim = host.sim
        self.costs = host.costs
        self.tracer = host.tracer
        self.name = name
        self.counters = self.tracer.scope(name)
        #: ``count(leaf, n=1)`` bumps ``<name>.<leaf>``
        self.count = self.counters.count
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
        self.count(names.QUEUE_HOPS, 2)
        yield self.app_core.busy(self.costs.mtcp_queue_hop_ns)
        cycle = self.costs.mtcp_cycle_ns
        wait_for_cycle = cycle - (self.sim.now % cycle)
        yield self.sim.timeout(wait_for_cycle)
        yield self.stack_core.busy(self.costs.mtcp_queue_hop_ns)

    # -- the legacy API -----------------------------------------------------------
    def listen(self, port: int, backlog: int = 128):
        """Plain call (control path): start listening."""
        return self.stack.tcp_listen(port, backlog)

    def accept(self, listener) -> Generator:
        """Blocking accept; returns an mTCP connection handle."""
        yield from self._exchange()
        while True:
            conn = listener.accept_nb()
            if conn is not None:
                return _MtcpConnection(self, conn)
            yield listener.accept_signal()

    def connect(self, ip: str, port: int) -> Generator:
        yield from self._exchange()
        conn = self.stack.tcp_connect(ip, port)
        yield conn.established
        yield from self._exchange()
        return _MtcpConnection(self, conn)


class _MtcpConnection:
    """One mTCP socket: POSIX stream semantics, batched stack access."""

    def __init__(self, shim: MtcpShim, conn):
        self.shim = shim
        self.conn = conn

    def send(self, data: bytes) -> Generator:
        shim = self.shim
        # POSIX semantics force the copy into stack-owned buffers.
        yield shim.app_core.busy(shim.costs.copy_ns(len(data)))
        shim.count(names.BYTES_COPIED_TX, len(data))
        yield from shim._exchange()
        self.conn.send(bytes(data))
        return len(data)

    def recv(self, max_bytes: int = 65536) -> Generator:
        """Blocking stream recv: returns whatever bytes are available.

        The batching penalty lands on the *response* path: data sits in
        the stack thread's buffers until its next cycle hands it over.
        """
        shim = self.shim
        while True:
            data = self.conn.recv(max_bytes)
            if data:
                break
            if self.conn.peer_closed or self.conn.error is not None:
                return b""
            yield self.conn.recv_signal()
        yield from shim._exchange()
        yield shim.app_core.busy(shim.costs.copy_ns(len(data)))
        shim.count(names.BYTES_COPIED_RX, len(data))
        return data

    def close(self) -> Generator:
        yield from self.shim._exchange()
        self.conn.close()
