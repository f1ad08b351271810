"""The DPDK library OS ("Catnip"): Demikernel queues over a raw NIC.

The DPDK-class device offers *only* kernel bypass (Table 1, left column):
raw frames in descriptor rings.  Everything else an application needs -
ARP, IP, UDP, TCP, message framing - this libOS supplies from
``repro.netstack``, running at user level on the libOS core with
streamlined per-packet costs and no kernel crossings or data copies.

Queues:

* UDP socket queues - datagrams are natural atomic elements;
* TCP socket queues - the libOS inserts length-prefix framing so the
  byte stream carries whole sgas (section 5.2's framing discussion);
* listening queues - ``accept`` yields connected TCP queues.

Zero-copy: pushes hand the sga's registered buffers to the device (IOMMU
validated); the application must not reuse them until the push completes,
and frees are safe at any time thanks to free-protection.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..core.api import LibOS
from ..core.queue import DemiQueue
from ..core.types import OP_PUSH, DemiError, QResult, QToken, Sga
from ..sim.engine import any_of
from ..telemetry import names
from ..hw.nic import DpdkNic
from ..netstack.framing import Deframer, frame_message
from ..netstack.ipv4 import DEFAULT_MTU, IPV4_HEADER_LEN
from ..netstack.stack import NetStack
from ..netstack.udp import UDP_HEADER_LEN

__all__ = ["DpdkLibOS", "UdpQueue", "TcpQueue", "ListenQueue"]

#: largest single UDP element (headers must fit the MTU)
MAX_UDP_ELEMENT = DEFAULT_MTU - IPV4_HEADER_LEN - UDP_HEADER_LEN


class UdpQueue(DemiQueue):
    """A UDP socket as a Demikernel queue; one datagram = one element."""

    kind = "udp-socket"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.port: Optional[int] = None
        self.remote: Optional[Tuple[str, int]] = None

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.libos._udp_push(self, sga, token, self.remote)

    def push_sga_to(self, sga: Sga, token: QToken,
                    remote: Tuple[str, int]) -> None:
        self.libos._udp_push(self, sga, token, remote)


class TcpQueue(DemiQueue):
    """A connected TCP socket as a Demikernel queue (framed messages)."""

    kind = "tcp-socket"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.conn = None           # netstack TcpConnection
        self.deframer = Deframer()
        self._rx_pump_proc = None

    def attach_connection(self, conn) -> None:
        self.conn = conn
        self._rx_pump_proc = self.libos.sim.spawn(
            self.libos._tcp_rx_pump(self),
            name="%s.q%d.rx" % (self.libos.name, self.qd))

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.libos._tcp_push(self, sga, token)


class ListenQueue(DemiQueue):
    """A passive TCP socket; ``accept`` pops connected queues off it."""

    kind = "tcp-listen"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.port: Optional[int] = None
        self.listener = None       # netstack TcpListener

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self._complete(token, QResult(OP_PUSH, self.qd,
                                      error="push on listening queue"))


class DpdkLibOS(LibOS):
    """Demikernel over a kernel-bypass-only NIC + user-level net stack."""

    device_kind = "kernel-bypass"

    def __init__(self, host, nic: DpdkNic, ip: str, name: str = "catnip",
                 core=None, rx_burst_size: int = 32,
                 verify_checksums: bool = False, rx_queue: int = 0,
                 arp_responder: bool = True, batching: bool = False,
                 tx_queue: Optional[int] = None,
                 spin_budget_ns: Optional[int] = None):
        super().__init__(host, name, core)
        self.nic = nic
        self.ip = ip
        self.rx_burst_size = rx_burst_size
        #: the NIC RX queue this instance polls.  A sharded server runs
        #: one DpdkLibOS per core, each bound to its own queue; RSS makes
        #: the NIC deliver each flow to exactly one of them.
        self.rx_queue = rx_queue
        if rx_queue >= nic.n_rx_queues:
            raise DemiError("rx queue %d on a %d-queue NIC"
                            % (rx_queue, nic.n_rx_queues))
        #: batched fast path: coalesce TX doorbells (one per burst) and
        #: amortize per-frame RX stack costs.  Off by default - timing of
        #: the singleton path is part of the repo's golden surface.
        self.batching = batching
        #: the NIC TX queue this instance posts to.  Defaults to the
        #: mirror of ``rx_queue`` so a sharded server's shards never
        #: serialize behind one TX pipeline (the 8-core knee).
        if tx_queue is None:
            tx_queue = rx_queue if rx_queue < nic.n_tx_queues else 0
        if tx_queue >= nic.n_tx_queues:
            raise DemiError("tx queue %d on a %d-tx-queue NIC"
                            % (tx_queue, nic.n_tx_queues))
        self.tx_queue = tx_queue
        #: adaptive poll/interrupt policy: spin (poll) for this budget
        #: after going idle, then arm a coalesced interrupt and sleep.
        #: None = pure poll mode (the classic DPDK driver).
        self.spin_budget_ns = spin_budget_ns
        self._tx_pending: List[Tuple[str, bytes]] = []
        self.offload_engine = nic.offload
        self.stack = NetStack(
            sim=self.sim,
            name="%s.stack" % name,
            mac=nic.mac,
            ip=ip,
            send_frame=self._send_frame,
            tracer=self.tracer,
            charge=self.core.charge_async,
            tx_cost_ns=self.costs.user_net_tx_ns,
            rx_cost_ns=self.costs.user_net_rx_ns,
            verify_checksums=verify_checksums,
            arp_responder=arp_responder,
            rx_batch_cost_ns=(self.costs.user_net_rx_batch_ns
                              if batching else None),
        )
        self._poll_proc = self.sim.spawn(self._poll_loop(),
                                         name="%s.poll" % name)
        # After a link flap the switch/peer MAC tables may have moved;
        # flush our ARP cache so traffic re-resolves before resuming.
        nic.on_link_recovered.append(self.stack.relearn_arp)

    # -- driver --------------------------------------------------------------
    def _send_frame(self, dst_mac: str, raw: bytes) -> None:
        if self.batching:
            # Park the descriptor; one doorbell covers everything posted
            # at this instant.  call_in(0) runs after the current event
            # finishes, so frames emitted together (the replies of one
            # batch drain, a window's worth of segments) share a single
            # ring.
            self._tx_pending.append((dst_mac, raw))
            if len(self._tx_pending) == 1:
                self.sim.call_in(0, self._flush_tx)
            return
        # Doorbell write to hand the descriptor to the NIC.
        self.core.charge_async(self.costs.doorbell_ns)
        self.count(names.DOORBELLS)
        self.nic.post_tx(dst_mac, raw, tx_queue=self.tx_queue)

    def _flush_tx(self) -> None:
        batch, self._tx_pending = self._tx_pending, []
        if not batch:
            return
        self.core.charge_async(self.costs.doorbell_ns)
        self.count(names.DOORBELLS)
        if len(batch) > 1:
            self.count(names.DOORBELLS_SAVED, len(batch) - 1)
        self.nic.post_tx_burst(batch, tx_queue=self.tx_queue)

    def _poll_loop(self) -> Generator:
        """The poll-mode driver: busy-poll the RX ring, feed the stack."""
        while True:
            if self.spin_budget_ns is None:
                yield self.nic.rx_signal(self.rx_queue)
            else:
                yield from self._adaptive_wait()
            yield self.core.busy(self.costs.dpdk_poll_ns)
            frames = self.nic.rx_burst(self.rx_burst_size, self.rx_queue)
            if self.batching:
                self.stack.rx_burst(frames)
            else:
                for frame in frames:
                    self.stack.rx_frame(frame)

    def _adaptive_wait(self) -> Generator:
        """Spin for the budget, then arm an interrupt and sleep.

        Two regimes: under load, traffic arrives inside the spin budget
        and the wake is free of interrupt cost (the spin cycles are
        charged retroactively - they burned CPU, but concurrent work was
        interleaved, so they must not delay the core's queue).  Idle past
        the budget, the driver arms the NIC interrupt and blocks; the
        next burst pays one ``interrupt_ns`` no matter how many frames it
        carries (coalesced), and wakes the driver exactly once.
        """
        signal = self.nic.rx_signal(self.rx_queue)
        if signal.triggered:
            return
        t0 = self.sim.now
        budget = self.sim.timeout(self.spin_budget_ns)
        index, _value = yield any_of(self.sim, [signal, budget])
        if index == 0:
            # Frames arrived mid-spin: the spin cost is the elapsed time.
            budget.cancel()
            self.core.charge_retro(self.sim.now - t0)
            self.count(names.POLL_SPIN_WAKES)
            return
        # Budget exhausted: arm the interrupt and block.
        self.core.charge_retro(self.spin_budget_ns)
        self.count(names.POLL_IRQ_ARMS)
        yield signal
        self.core.charge_async(self.costs.interrupt_ns)
        self.count(names.POLL_IRQ_WAKEUPS)

    # -- UDP ---------------------------------------------------------------------
    def _udp_push(self, queue: UdpQueue, sga: Sga, token: QToken,
                  remote: Optional[Tuple[str, int]]) -> None:
        if remote is None:
            self.qtokens.complete(token, QResult(
                OP_PUSH, queue.qd, error="no remote address"))
            return
        payload = sga.tobytes()
        if len(payload) > MAX_UDP_ELEMENT:
            self.qtokens.complete(token, QResult(
                OP_PUSH, queue.qd, error="element exceeds MTU"))
            return
        if queue.port is None:
            queue.port = self.stack._alloc_ephemeral()
            self.stack.udp_bind(queue.port, self._udp_handler(queue))
        # Zero-copy transmit: the device reads the app buffers directly.
        for addr, size in sga.dma_ranges():
            self.nic.iommu.translate(addr, size)
        sga.hold_all()
        self.stack.udp_send(queue.port, remote[0], remote[1], payload)
        # The NIC is done with the buffers once the frame is DMA'd out.
        self.sim.call_in(self.costs.dma_ns(sga.nbytes), sga.release_all)
        self.count(names.UDP_TX_ELEMENTS)
        self.qtokens.complete(token, QResult(OP_PUSH, queue.qd,
                                             nbytes=sga.nbytes))

    def _udp_handler(self, queue: UdpQueue):
        def on_datagram(payload: bytes, src_ip: str, src_port: int) -> None:
            if queue.closed:
                return
            # DMA delivered the datagram into registered memory; wrap it.
            buf = self.mm.alloc(max(1, len(payload)))
            buf.write(0, payload)
            sga = Sga.from_buffer(buf, len(payload))
            self.count(names.UDP_RX_ELEMENTS)
            queue.deliver(sga, value=(src_ip, src_port))
        return on_datagram

    # -- TCP ----------------------------------------------------------------------
    def _tcp_push(self, queue: TcpQueue, sga: Sga, token: QToken) -> None:
        if queue.conn is None:
            self.qtokens.complete(token, QResult(
                OP_PUSH, queue.qd, error="not connected"))
            return
        payload = sga.tobytes()
        # Framing keeps the element atomic across the byte stream.
        self.core.charge_async(self.costs.framing_ns)
        for addr, size in sga.dma_ranges():
            self.nic.iommu.translate(addr, size)
        sga.hold_all()
        try:
            queue.conn.send(frame_message(payload))
        except Exception as err:
            sga.release_all()
            self.qtokens.complete(token, QResult(
                OP_PUSH, queue.qd, error=str(err)))
            return
        self.sim.call_in(self.costs.dma_ns(sga.nbytes), sga.release_all)
        self.count(names.TCP_TX_ELEMENTS)
        self.qtokens.complete(token, QResult(OP_PUSH, queue.qd,
                                             nbytes=sga.nbytes))

    def _tcp_rx_pump(self, queue: TcpQueue) -> Generator:
        conn = queue.conn
        while not queue.closed:
            if conn.error is not None:
                # A hard reset (peer crash/abort), not a graceful FIN:
                # surface ECONNRESET-style errors to waiting pops.  RST
                # discards buffered data, as real TCP does.
                queue.fail_pops(str(conn.error))
                return
            data = conn.recv()
            if data:
                self.core.charge_async(self.costs.framing_ns)
                for message in queue.deframer.feed(data):
                    buf = self.mm.alloc(max(1, len(message)))
                    buf.write(0, message)
                    self.count(names.TCP_RX_ELEMENTS)
                    queue.deliver(Sga.from_buffer(buf, len(message)))
                continue
            if conn.peer_closed:
                queue.mark_eof()
                return
            yield conn.recv_signal()

    # -- control path (Figure 3 network calls) ---------------------------------
    def socket(self, proto: str = "tcp") -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        if proto == "tcp":
            return self._install(TcpQueue).qd
        if proto == "udp":
            return self._install(UdpQueue).qd
        raise DemiError("unknown protocol %r" % proto)

    def bind(self, qd: int, port: int) -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        queue = self._lookup(qd)
        if isinstance(queue, UdpQueue):
            queue.port = port
            self.stack.udp_bind(port, self._udp_handler(queue))
        elif isinstance(queue, TcpQueue):
            # Rebind the descriptor as a passive socket placeholder.
            listen_queue = ListenQueue(self, qd)
            listen_queue.port = port
            self._queues[qd] = listen_queue
        else:
            raise DemiError("bind on qd %d (%s)" % (qd, queue.kind))

    def listen(self, qd: int, backlog: int = 128) -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        queue = self._lookup(qd)
        if not isinstance(queue, ListenQueue) or queue.port is None:
            raise DemiError("listen before bind on qd %d" % qd)
        queue.listener = self.stack.tcp_listen(queue.port, backlog)

    def accept(self, qd: int) -> Generator:
        """Control path: wait for a connection; returns the new queue's qd."""
        queue = self._lookup(qd)
        if not isinstance(queue, ListenQueue) or queue.listener is None:
            raise DemiError("accept on non-listening qd %d" % qd)
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        while True:
            conn = queue.listener.accept_nb()
            if conn is not None:
                break
            yield queue.listener.accept_signal()
        new_queue = self._install(TcpQueue)
        new_queue.attach_connection(conn)
        self.count(names.ACCEPTS)
        return new_queue.qd

    def connect(self, qd: int, ip: str, port: int,
                src_port: Optional[int] = None) -> Generator:
        """*src_port* pins the local port - a client can pick one whose
        flow tuple RSS-hashes onto a chosen server shard."""
        queue = self._lookup(qd)
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        if isinstance(queue, UdpQueue):
            queue.remote = (ip, port)
            if queue.port is None:
                queue.port = self.stack._alloc_ephemeral()
                self.stack.udp_bind(queue.port, self._udp_handler(queue))
            return 0
        if isinstance(queue, TcpQueue):
            conn = self.stack.tcp_connect(ip, port, src_port=src_port)
            yield conn.established
            queue.attach_connection(conn)
            self.count(names.CONNECTS)
            return 0
        raise DemiError("connect on qd %d (%s)" % (qd, queue.kind))

    def push_to(self, qd: int, sga: Sga, remote: Tuple[str, int]) -> QToken:
        """UDP extension: push one element to an explicit remote address."""
        queue = self._lookup(qd)
        if not isinstance(queue, UdpQueue):
            raise DemiError("push_to on non-UDP qd %d" % qd)
        self.core.charge_async(self.costs.libos_push_ns + self.costs.qtoken_ns)
        self.count(names.PUSHES)
        token, _done = self.qtokens.create()
        if self.tracer.tracing:
            self.qtokens.trace(token, names.SPAN_PUSH, qd=qd,
                               nbytes=sga.nbytes)
        queue.push_sga_to(sga, token, remote)
        return token

    def close(self, qd: int) -> Generator:
        queue = self._queues.get(qd)
        if isinstance(queue, TcpQueue) and queue.conn is not None:
            queue.conn.close()
        if isinstance(queue, ListenQueue) and queue.listener is not None:
            queue.listener.close()
        if isinstance(queue, UdpQueue) and queue.port is not None:
            self.stack.udp_unbind(queue.port)
        yield from LibOS.close(self, qd)
        # The pump may be parked on recv_signal forever if the peer is
        # unreachable (e.g. a partition that never heals); reap it.
        if isinstance(queue, TcpQueue) and queue._rx_pump_proc is not None:
            queue._rx_pump_proc.interrupt("close")

    # -- crash teardown (kernel-side reclamation) -------------------------------
    def crash_abort_queue(self, queue, counters) -> None:
        """RST live connections so peers see ECONNRESET, not an RTO hang."""
        if isinstance(queue, TcpQueue):
            if queue.conn is not None and queue.conn.state != "CLOSED":
                queue.conn.abort()
                counters.count(names.RECLAIM_TCP_RSTS)
            if queue._rx_pump_proc is not None:
                queue._rx_pump_proc.interrupt("proc_crash")
        elif isinstance(queue, ListenQueue):
            if queue.listener is not None:
                queue.listener.close()
                counters.count(names.RECLAIM_LISTENERS_CLOSED)
        elif isinstance(queue, UdpQueue):
            if queue.port is not None:
                self.stack.udp_unbind(queue.port)
                counters.count(names.RECLAIM_UDP_UNBOUND)

    def crash_background_procs(self):
        return [self._poll_proc]
