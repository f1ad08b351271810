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
from ..core.queue import DemiQueue, ListeningQueue
from ..core.types import OP_PUSH, DemiError, QResult, QToken, Sga
from ..telemetry import names
from ..hw.nic import DpdkNic
from ..netstack.framing import Deframer, frame_message
from ..netstack.ipv4 import DEFAULT_MTU, IPV4_HEADER_LEN
from ..netstack.stack import NetStack
from ..netstack.udp import UDP_HEADER_LEN

__all__ = ["DpdkLibOS"]

#: largest single UDP element (headers must fit the MTU)
MAX_UDP_ELEMENT = DEFAULT_MTU - IPV4_HEADER_LEN - UDP_HEADER_LEN


class UdpQueue(DemiQueue):
    """A UDP socket as a Demikernel queue; one datagram = one element."""

    kind = "udp-socket"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.port: Optional[int] = None
        self.remote: Optional[Tuple[str, int]] = None

    def _bind_port(self, port: Optional[int]) -> None:
        """Receive on *port* (None: an ephemeral one)."""
        stack = self.libos.stack
        self.port = stack._alloc_ephemeral() if port is None else port
        stack.udp_bind(self.port, self._on_datagram)

    def _on_datagram(self, payload: bytes, src_ip: str, src_port: int) -> None:
        if not self.closed:
            self.deliver_payload(payload, names.UDP_RX_ELEMENTS,
                                 (src_ip, src_port))

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.push_sga_to(sga, token, self.remote)

    def push_sga_to(self, sga: Sga, token: QToken,
                    remote: Optional[Tuple[str, int]]) -> None:
        libos = self.libos
        if remote is None:
            libos.qtokens.complete(token, QResult(
                OP_PUSH, self.qd, error="no remote address"))
            return
        payload = sga.tobytes()
        if len(payload) > MAX_UDP_ELEMENT:
            libos.qtokens.complete(token, QResult(
                OP_PUSH, self.qd, error="element exceeds MTU"))
            return
        if self.port is None:
            self._bind_port(None)
        # Zero-copy transmit: the device reads the app buffers directly.
        for addr, size in sga.dma_ranges():
            libos.nic.iommu.translate(addr, size)
        sga.hold_all()
        libos.stack.udp_send(self.port, remote[0], remote[1], payload)
        # The NIC is done with the buffers once the frame is DMA'd out.
        self.sim.call_in(libos.costs.dma_ns(sga.nbytes), sga.release_all)
        libos.counters.udp_tx_elements += 1
        libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                              nbytes=sga.nbytes))

    def bind(self, port: int) -> Generator:
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        self._bind_port(port)

    def connect(self, ip: str, port: int,
                src_port: Optional[int] = None) -> Generator:
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        self.remote = (ip, port)
        if self.port is None:
            self._bind_port(None)
        return 0

    def shutdown(self) -> Generator:
        if self.port is not None:
            self.libos.stack.udp_unbind(self.port)
        return
        yield  # pragma: no cover

    def crash_abort(self, counters) -> None:
        if self.port is not None:
            self.libos.stack.udp_unbind(self.port)
            counters.udp_unbound += 1


class TcpQueue(DemiQueue):
    """A connected TCP socket as a Demikernel queue (framed messages)."""

    kind = "tcp-socket"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.conn = None           # netstack TcpConnection
        self.deframer = Deframer()

    def attach_connection(self, conn) -> None:
        self.conn = conn
        self._spawn_pump(self._rx_pump(), "rx")

    def push_sga(self, sga: Sga, token: QToken) -> None:
        libos = self.libos
        if self.conn is None:
            libos.qtokens.complete(token, QResult(
                OP_PUSH, self.qd, error="not connected"))
            return
        payload = sga.tobytes()
        # Framing keeps the element atomic across the byte stream.
        libos.core.charge_async(libos.costs.framing_ns)
        for addr, size in sga.dma_ranges():
            libos.nic.iommu.translate(addr, size)
        sga.hold_all()
        try:
            self.conn.send(frame_message(payload))
        except Exception as err:
            sga.release_all()
            libos.qtokens.complete(token, QResult(
                OP_PUSH, self.qd, error=str(err)))
            return
        self.sim.call_in(libos.costs.dma_ns(sga.nbytes), sga.release_all)
        libos.counters.tcp_tx_elements += 1
        libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                              nbytes=sga.nbytes))

    def _rx_pump(self) -> Generator:
        conn, libos = self.conn, self.libos
        while not self.closed:
            if conn.error is not None:
                # A hard reset (peer crash/abort), not a graceful FIN:
                # surface ECONNRESET-style errors to waiting pops.  RST
                # discards buffered data, as real TCP does.
                self.fail_pops(str(conn.error))
                return
            data = conn.recv()
            if data:
                libos.core.charge_async(libos.costs.framing_ns)
                for message in self.deframer.feed(data):
                    self.deliver_payload(message, names.TCP_RX_ELEMENTS)
                continue
            if conn.peer_closed:
                self.mark_eof()
                return
            yield conn.recv_signal()

    def bind(self, port: int) -> Generator:
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        # The descriptor becomes a passive socket.
        self.libos._seat(self.qd, ListenQueue, port)

    def connect(self, ip: str, port: int,
                src_port: Optional[int] = None) -> Generator:
        """*src_port* pins the local port - a client can pick one whose
        flow tuple RSS-hashes onto a chosen server shard."""
        libos = self.libos
        yield libos.core.busy(libos.costs.kernel_sock_op_ns)
        conn = libos.stack.tcp_connect(ip, port, src_port=src_port)
        yield conn.established
        self.attach_connection(conn)
        libos.counters.connects += 1
        return 0

    def shutdown(self) -> Generator:
        if self.conn is not None:
            self.conn.close()
        return
        yield  # pragma: no cover

    def crash_abort(self, counters) -> None:
        """RST a live connection so the peer sees ECONNRESET, not an RTO
        hang."""
        if self.conn is not None and self.conn.state != "CLOSED":
            self.conn.abort()
            counters.tcp_rsts += 1
        self.reap()


class ListenQueue(ListeningQueue):
    """A passive TCP socket; ``accept`` pops connected queues off it."""

    kind = "tcp-listen"

    def listen(self, backlog: int = 128) -> Generator:
        if self.listener is not None:
            raise self._refused("listen again on")
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        self.listener = self.libos.stack.tcp_listen(self.port, backlog)

    def accept(self) -> Generator:
        if self.listener is None:
            raise self._refused("accept on non-listening")
        libos = self.libos
        yield libos.core.busy(libos.costs.kernel_sock_op_ns)
        while True:
            conn = self.listener.accept_nb()
            if conn is not None:
                break
            yield self.listener.accept_signal()
        new_queue = libos._install(TcpQueue)
        new_queue.attach_connection(conn)
        libos.counters.accepts += 1
        return new_queue.qd


class DpdkLibOS(LibOS):
    """Demikernel over a kernel-bypass-only NIC + user-level net stack."""

    device_kind = "kernel-bypass"

    def __init__(self, host, nic: DpdkNic, ip: str, name: str = "catnip",
                 core=None, rx_queue: int = 0, arp_responder: bool = True):
        super().__init__(host, name, core)
        self.nic = nic
        self.ip = ip
        #: frames one poll takes off the RX ring; the stack charges the
        #: first of them ``user_net_rx_ns`` and the rest
        #: ``user_net_rx_batch_ns``
        self.rx_burst_size = 32
        #: the NIC RX queue this instance polls.  A sharded server runs
        #: one DpdkLibOS per core, each bound to its own queue; RSS makes
        #: the NIC deliver each flow to exactly one of them.
        self.rx_queue = rx_queue
        if rx_queue >= nic.n_rx_queues:
            raise DemiError("rx queue %d on a %d-queue NIC"
                            % (rx_queue, nic.n_rx_queues))
        #: the NIC TX queue this instance posts to: the mirror of
        #: ``rx_queue``, so a sharded server's shards never serialize
        #: behind one TX pipeline (the 8-core knee's root cause).
        self.tx_queue = rx_queue if rx_queue < nic.n_tx_queues else 0
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
            arp_responder=arp_responder,
            rx_batch_cost_ns=self.costs.user_net_rx_batch_ns,
        )
        self._poll_proc = self.sim.spawn(self._poll_loop(),
                                         name="%s.poll" % name)
        # After a link flap the switch/peer MAC tables may have moved;
        # flush our ARP cache so traffic re-resolves before resuming.
        nic.on_link_recovered.append(self.stack.relearn_arp)

    # -- driver --------------------------------------------------------------
    def _send_frame(self, dst_mac: str, raw: bytes) -> None:
        # Park the descriptor; one doorbell covers everything posted at
        # this instant.  call_in(0) runs after the current event finishes,
        # so frames emitted together (the replies of one batch drain, a
        # window's worth of segments) share a single ring.
        self._tx_pending.append((dst_mac, raw))
        if len(self._tx_pending) == 1:
            self.sim.call_in(0, self._flush_tx)

    def _flush_tx(self) -> None:
        batch, self._tx_pending = self._tx_pending, []
        self.core.charge_async(self.costs.doorbell_ns)
        self.counters.doorbells += 1
        if len(batch) > 1:
            self.counters.doorbells_saved += len(batch) - 1
        self.nic.post_tx_burst(batch, tx_queue=self.tx_queue)

    def _poll_loop(self) -> Generator:
        """The poll-mode driver: busy-poll the RX ring, feed the stack."""
        while True:
            yield self.nic.rx_signal(self.rx_queue)
            yield self.core.busy(self.costs.dpdk_poll_ns)
            self.stack.rx_burst(
                self.nic.rx_burst(self.rx_burst_size, self.rx_queue))

    # -- control path (Figure 3 network calls) ---------------------------------
    def socket(self, proto: str = "tcp") -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        if proto == "tcp":
            return self._install(TcpQueue).qd
        if proto == "udp":
            return self._install(UdpQueue).qd
        raise DemiError("unknown protocol %r" % proto)

    def crash_background_procs(self):
        return [self._poll_proc]
