"""The network stack instance: ethernet + ARP + IPv4 + UDP + TCP demux.

One :class:`NetStack` runs per NIC.  It is deliberately placement-neutral:
the *same* protocol code serves as

* the user-level stack inside the DPDK libOS (charged at
  ``user_net_tx/rx`` costs, the streamlined-library regime), and
* the in-kernel stack of ``repro.kernelos`` (charged at
  ``kernel_net_tx/rx`` costs with interrupts and copies added by the
  socket layer above it).

That sharing is what makes the paper's comparisons apples-to-apples: both
worlds speak identical TCP; only where the code runs and what it charges
differs.

A frame is parsed where it lies and packed once.  Receive reads the
Ethernet, IPv4 and TCP headers out of the driver's one ``bytes`` at their
offsets (:meth:`NetStack._rx_ipv4`) and slices it only for the payload;
transmit writes Ethernet header, IPv4 header and L4 bytes with one join
(:meth:`NetStack._tx_ipv4`).  ``EthernetFrame`` and ``Ipv4Packet`` are
the codec for what is held as an object - ARP, packets queued behind an
ARP resolution - and the reference ``tests/netstack/test_packets.py``
compares both paths against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from .arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from .ethernet import (ETH_HEADER_LEN, ETHERTYPE_ARP, ETHERTYPE_IPV4,
                       EthernetFrame, ethernet_header)
from .ipv4 import (DEFAULT_MTU, DEFAULT_TTL, FLAG_DF, IPV4_HEADER,
                   IPV4_HEADER_LEN, PROTO_TCP, PROTO_UDP, VERSION_IHL,
                   Ipv4Packet)
from .packet import (PacketError, bytes_to_ip, internet_checksum, ip_to_bytes,
                     mac_to_bytes)
from .tcp import (ACK, RST, SYN, TcpConnection, TcpListener, TcpSegment,
                  tcp_checksum_ok)
from .udp import UdpDatagram, udp_checksum_ok

__all__ = ["NetStack", "BROADCAST_MAC"]

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
_BROADCAST = mac_to_bytes(BROADCAST_MAC)

#: where the IPv4 header ends in a frame: L4 starts here (no IP options)
_L4_OFFSET = ETH_HEADER_LEN + IPV4_HEADER_LEN

ARP_RETRY_NS = 100_000
ARP_MAX_RETRIES = 5

UdpHandler = Callable[[bytes, str, int], None]


class NetStack:
    """An IPv4 endpoint bound to one NIC-like transmit function."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str,
        ip: str,
        send_frame: Callable[[str, bytes], None],
        tracer,
        charge: Optional[Callable[[int], None]] = None,
        tx_cost_ns: int = 0,
        rx_cost_ns: int = 0,
        verify_checksums: bool = False,
        arp_responder: bool = True,
        rx_batch_cost_ns: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.mac = mac
        self.ip = ip
        self.send_frame = send_frame
        self.tracer = tracer
        self.counters = tracer.scope(name)
        self.charge = charge or (lambda ns: None)
        self.tx_cost_ns = tx_cost_ns
        self.rx_cost_ns = rx_cost_ns
        #: cost of the 2nd..Nth frame of one :meth:`rx_burst` call
        self.rx_batch_cost_ns = rx_batch_cost_ns
        self.verify_checksums = verify_checksums
        #: answer ARP who-has requests for our IP.  When several stacks
        #: share one NIC and IP (per-core shards behind RSS), exactly one
        #: of them must own the responder role or every request draws N
        #: replies; the others still learn opportunistically.
        self.arp_responder = arp_responder

        # our own addresses on the wire (neither changes after construction)
        self._mac_bytes = mac_to_bytes(mac)
        self._ip_bytes = ip_to_bytes(ip)
        #: destination MAC -> the Ethernet header of an IPv4 frame to it
        self._eth_headers: Dict[str, bytes] = {}

        self.arp_table: Dict[str, str] = {}
        self._arp_pending: Dict[str, List[Ipv4Packet]] = {}
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._tcp_listeners: Dict[int, TcpListener] = {}
        self._tcp_conns: Dict[Tuple[str, int, str, int], TcpConnection] = {}
        self._next_ephemeral = 49152
        self._next_isn = 1000
        self._ip_ident = 0

    # ------------------------------------------------------------- frames
    def rx_frame(self, raw: bytes) -> None:
        """Entry point from the driver (poll loop or interrupt handler)."""
        self.charge(self.rx_cost_ns)
        self.counters.rx_frames += 1
        self._dispatch_frame(raw)

    def rx_burst(self, frames: List[bytes]) -> None:
        """Deliver a burst of frames in one driver crossing.

        Protocol processing is identical to calling :meth:`rx_frame` per
        frame; the difference is cost accounting: only the first frame
        pays the full ``rx_cost_ns`` (cache warm-up, ring bookkeeping) and
        the rest run the hot loop at ``rx_batch_cost_ns``.
        """
        if not frames:
            return
        self.counters.rx_bursts += 1
        self.counters.rx_burst_frames += len(frames)
        cost = self.rx_cost_ns
        for raw in frames:
            self.charge(cost)
            cost = self.rx_batch_cost_ns
            self.counters.rx_frames += 1
            self._dispatch_frame(raw)

    def _dispatch_frame(self, raw: bytes) -> None:
        if len(raw) < ETH_HEADER_LEN:
            self.counters.rx_malformed += 1
            return
        dst = raw[:6]
        if dst != self._mac_bytes and dst != _BROADCAST:
            self.counters.rx_wrong_mac += 1
            return
        ethertype = raw[12] << 8 | raw[13]
        if ethertype == ETHERTYPE_IPV4:
            self._rx_ipv4(raw)
        elif ethertype == ETHERTYPE_ARP:
            self._rx_arp(raw[ETH_HEADER_LEN:])
        else:
            self.counters.rx_unknown_ethertype += 1

    def _tx_frame(self, dst_mac: str, ethertype: int, payload: bytes) -> None:
        self.charge(self.tx_cost_ns)
        self.counters.tx_frames += 1
        frame = EthernetFrame(dst=dst_mac, src=self.mac,
                              ethertype=ethertype, payload=payload)
        self.send_frame(dst_mac, frame.pack())

    # ---------------------------------------------------------------- ARP
    def _rx_arp(self, payload: bytes) -> None:
        try:
            arp = ArpPacket.unpack(payload)
        except PacketError:
            self.counters.rx_malformed += 1
            return
        # Opportunistic learning.
        self.arp_table[arp.sender_ip] = arp.sender_mac
        self._flush_arp_pending(arp.sender_ip)
        if (self.arp_responder and arp.oper == ARP_REQUEST
                and arp.target_ip == self.ip):
            reply = ArpPacket(ARP_REPLY, self.mac, self.ip,
                              arp.sender_mac, arp.sender_ip)
            self._tx_frame(arp.sender_mac, ETHERTYPE_ARP, reply.pack())

    def _arp_resolve(self, dst_ip: str, packet: Ipv4Packet) -> None:
        """Queue the packet and broadcast a who-has."""
        pending = self._arp_pending.setdefault(dst_ip, [])
        pending.append(packet)
        if len(pending) == 1:
            self._send_arp_request(dst_ip, 0)

    def _send_arp_request(self, dst_ip: str, attempt: int) -> None:
        if dst_ip in self.arp_table or dst_ip not in self._arp_pending:
            return
        if attempt >= ARP_MAX_RETRIES:
            dropped = self._arp_pending.pop(dst_ip, [])
            self.counters.arp_unresolved_drops += len(dropped)
            return
        req = ArpPacket(ARP_REQUEST, self.mac, self.ip,
                        "00:00:00:00:00:00", dst_ip)
        self._tx_frame(BROADCAST_MAC, ETHERTYPE_ARP, req.pack())
        self.counters.arp_requests += 1
        self.sim.call_in(ARP_RETRY_NS, self._send_arp_request, dst_ip, attempt + 1)

    def _flush_arp_pending(self, ip: str) -> None:
        for packet in self._arp_pending.pop(ip, []):
            self._tx_ipv4(packet.src, packet.dst, packet.proto,
                          packet.payload, packet.ident)

    # --------------------------------------------------------------- IPv4
    def _rx_ipv4(self, raw: bytes) -> None:
        """Parse the IPv4 header of frame *raw* in place and demultiplex.

        The checks, their order and the counter each bumps are
        ``Ipv4Packet.unpack``'s; L4 is handed on as ``raw`` plus the
        offset ``total_len`` ends it at (a frame may be padded beyond).
        """
        size = len(raw) - ETH_HEADER_LEN
        if size < IPV4_HEADER_LEN:
            self.counters.rx_malformed += 1
            return
        (ver_ihl, _tos, total_len, _ident, _flags, _ttl, proto, _csum,
         src, dst) = IPV4_HEADER.unpack_from(raw, ETH_HEADER_LEN)
        if (ver_ihl != VERSION_IHL  # not IPv4, or IP options
                or total_len > size  # truncated
                or (self.verify_checksums and internet_checksum(
                    raw[ETH_HEADER_LEN:_L4_OFFSET]) != 0)):
            self.counters.rx_malformed += 1
            return
        if dst != self._ip_bytes:
            self.counters.rx_wrong_ip += 1
            return
        # a total_len below the header's own length leaves no L4 bytes
        end = (ETH_HEADER_LEN + total_len if total_len > IPV4_HEADER_LEN
               else _L4_OFFSET)
        if proto == PROTO_TCP:
            self._rx_tcp(raw, bytes_to_ip(src), end)
        elif proto == PROTO_UDP:
            self._rx_udp(raw[_L4_OFFSET:end], bytes_to_ip(src))
        else:
            self.counters.rx_unknown_proto += 1

    def _tx_ipv4(self, src_ip: str, dst_ip: str, proto: int, l4: bytes,
                 ident: Optional[int] = None) -> None:
        """Send *l4* in one IPv4 packet: every frame with an IPv4 header
        is built here, from fields, with one join.

        *ident* is given only for a packet that already drew one and
        then waited for ARP.
        """
        if ident is None:
            ident = self._ip_ident = (self._ip_ident + 1) & 0xFFFF
        total_len = IPV4_HEADER_LEN + len(l4)
        if total_len > DEFAULT_MTU:
            raise PacketError(
                "IPv4 payload %d exceeds MTU %d (no fragmentation)"
                % (len(l4), DEFAULT_MTU)
            )
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is None:
            self._arp_resolve(dst_ip, Ipv4Packet(src_ip, dst_ip, proto, l4,
                                                 ident=ident))
            return
        self.charge(self.tx_cost_ns)
        self.counters.tx_frames += 1
        try:
            ethernet = self._eth_headers[dst_mac]
        except KeyError:
            ethernet = self._eth_headers[dst_mac] = ethernet_header(
                dst_mac, self.mac, ETHERTYPE_IPV4)
        header = IPV4_HEADER.pack(VERSION_IHL, 0, total_len, ident, FLAG_DF,
                                  DEFAULT_TTL, proto,
                                  0,  # checksum placeholder
                                  ip_to_bytes(src_ip), ip_to_bytes(dst_ip))
        csum = internet_checksum(header)
        self.send_frame(dst_mac, b"".join((
            ethernet, header[:10], csum.to_bytes(2, "big"), header[12:], l4)))

    # ---------------------------------------------------------------- UDP
    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise ValueError("UDP port %d already bound" % port)
        self._udp_handlers[port] = handler

    def udp_unbind(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def udp_send(self, src_port: int, dst_ip: str, dst_port: int,
                 payload: bytes) -> None:
        datagram = UdpDatagram(src_port, dst_port, payload)
        self._tx_ipv4(self.ip, dst_ip, PROTO_UDP,
                      datagram.pack(self.ip, dst_ip))

    def _rx_udp(self, l4: bytes, src_ip: str) -> None:
        if self.verify_checksums and not udp_checksum_ok(l4, src_ip, self.ip):
            self.counters.udp_bad_checksum_drops += 1
            return
        try:
            datagram = UdpDatagram.unpack(l4)
        except PacketError:
            self.counters.rx_malformed += 1
            return
        handler = self._udp_handlers.get(datagram.dst_port)
        if handler is None:
            self.counters.udp_no_listener += 1
            return
        handler(datagram.payload, src_ip, datagram.src_port)

    # ---------------------------------------------------------------- TCP
    def tcp_listen(self, port: int, backlog: int = 128,
                   recv_capacity: int = 262144) -> TcpListener:
        if port in self._tcp_listeners:
            raise ValueError("TCP port %d already listening" % port)
        listener = TcpListener(self, port, backlog)
        listener.recv_capacity = recv_capacity
        self._tcp_listeners[port] = listener
        return listener

    def tcp_connect(self, dst_ip: str, dst_port: int,
                    src_port: Optional[int] = None,
                    recv_capacity: int = 262144) -> TcpConnection:
        if src_port is None:
            src_port = self._alloc_ephemeral()
        key = (self.ip, src_port, dst_ip, dst_port)
        if key in self._tcp_conns:
            raise ValueError("connection %r already exists" % (key,))
        conn = TcpConnection(self, (self.ip, src_port), (dst_ip, dst_port),
                             iss=self._alloc_isn(), recv_capacity=recv_capacity)
        self._tcp_conns[key] = conn
        conn.start_connect()
        return conn

    def _alloc_ephemeral(self) -> int:
        for _ in range(16384):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 49152
            if all(k[1] != port for k in self._tcp_conns):
                return port
        raise RuntimeError("out of ephemeral ports")

    def _alloc_isn(self) -> int:
        self._next_isn += 64000
        return self._next_isn

    def _rx_tcp(self, raw: bytes, src_ip: str, end: int) -> None:
        """The TCP segment at ``raw[_L4_OFFSET:end]``, from *src_ip* to us."""
        if self.verify_checksums and not tcp_checksum_ok(
                raw[_L4_OFFSET:end], src_ip, self.ip):
            # Corrupted segment: discard silently; the sender's RTO or
            # fast retransmit recovers, exactly as on a real stack.
            self.counters.tcp_bad_checksum_drops += 1
            return
        try:
            seg = TcpSegment.unpack_from(raw, _L4_OFFSET, end)
        except PacketError:
            self.counters.rx_malformed += 1
            return
        key = (self.ip, seg.dst_port, src_ip, seg.src_port)
        conn = self._tcp_conns.get(key)
        if conn is not None:
            conn.on_segment(seg)
            return
        # New connection?
        listener = self._tcp_listeners.get(seg.dst_port)
        if listener is not None and not listener.closed and seg.flags & SYN \
                and not seg.flags & ACK:
            conn = TcpConnection(self, (self.ip, seg.dst_port),
                                 (src_ip, seg.src_port),
                                 iss=self._alloc_isn(),
                                 recv_capacity=getattr(listener, "recv_capacity",
                                                       262144))
            conn._listener = listener
            self._tcp_conns[key] = conn
            conn.on_syn(seg)
            return
        # No home for this segment: RST (unless it was itself a RST).
        if not seg.flags & RST:
            self.counters.tcp_rst_sent += 1
            rst = TcpSegment(seg.dst_port, seg.src_port,
                             seg.ack, seg.seq + len(seg.payload) + 1,
                             RST | ACK, 0)
            self._tx_ipv4(self.ip, src_ip, PROTO_TCP,
                          rst.pack(self.ip, src_ip))

    def _tcp_transmit(self, conn: TcpConnection, seg: TcpSegment) -> None:
        self.counters.tcp_segments_tx += 1
        src_ip, dst_ip = conn.local[0], conn.remote[0]
        self._tx_ipv4(src_ip, dst_ip, PROTO_TCP, seg.pack(src_ip, dst_ip))

    def _forget_connection(self, conn: TcpConnection) -> None:
        key = (conn.local[0], conn.local[1], conn.remote[0], conn.remote[1])
        self._tcp_conns.pop(key, None)

    def _forget_listener(self, listener: TcpListener) -> None:
        self._tcp_listeners.pop(listener.port, None)

    # ------------------------------------------------------------- helpers
    def relearn_arp(self) -> None:
        """Invalidate the ARP cache after a link flap.

        The healed link may connect to a different switch port (or the
        peer's MAC may have moved), so every cached entry is suspect.
        Entries re-resolve on demand through the normal request/retry
        path; packets sent meanwhile queue behind the resolution.
        Register this as a NIC ``on_link_recovered`` hook.
        """
        if self.arp_table:
            self.counters.arp_relearns += len(self.arp_table)
        self.arp_table.clear()
