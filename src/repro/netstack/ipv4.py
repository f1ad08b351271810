"""IPv4 (RFC 791) - fixed 20-byte header, no fragmentation (DF always set).

Datacenter stacks avoid IP fragmentation entirely (TCP segments to MSS,
UDP callers keep datagrams under MTU), so attempting to send an oversized
IP payload raises instead of fragmenting.

:class:`Ipv4Packet` is the codec for a packet held as an object (the
ARP-pending queue, tests); ``repro.netstack.stack.NetStack`` applies the
same ``IPV4_HEADER`` layout to a frame in place, and
``tests/netstack/test_packets.py`` holds the two equal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .packet import PacketError, bytes_to_ip, internet_checksum, ip_to_bytes

__all__ = ["Ipv4Packet", "PROTO_TCP", "PROTO_UDP", "IPV4_HEADER_LEN",
           "DEFAULT_MTU", "DEFAULT_TTL", "FLAG_DF", "VERSION_IHL", "IPV4_HEADER"]

PROTO_TCP = 6
PROTO_UDP = 17
IPV4_HEADER_LEN = 20
DEFAULT_MTU = 1500
DEFAULT_TTL = 64

FLAG_DF = 0x4000
VERSION_IHL = (4 << 4) | 5
#: version+IHL, DSCP/ECN, total length, ident, flags+fragment, TTL,
#: protocol, header checksum, source, destination
IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")


@dataclass
class Ipv4Packet:
    src: str
    dst: str
    proto: int
    payload: bytes
    ttl: int = DEFAULT_TTL
    ident: int = 0

    def pack(self) -> bytes:
        total_len = IPV4_HEADER_LEN + len(self.payload)
        if total_len > 65535:
            raise PacketError("IPv4 packet too large: %d" % total_len)
        header = IPV4_HEADER.pack(VERSION_IHL, 0, total_len, self.ident,
                                  FLAG_DF, self.ttl, self.proto,
                                  0,  # checksum placeholder
                                  ip_to_bytes(self.src),
                                  ip_to_bytes(self.dst))
        csum = internet_checksum(header)
        return b"".join((header[:10], csum.to_bytes(2, "big"), header[12:],
                         self.payload))

    @classmethod
    def unpack(cls, raw: bytes) -> "Ipv4Packet":
        if len(raw) < IPV4_HEADER_LEN:
            raise PacketError("IPv4 packet too short: %d bytes" % len(raw))
        (ver_ihl, _tos, total_len, ident, _flags, ttl, proto, _csum,
         src, dst) = IPV4_HEADER.unpack_from(raw)
        version = ver_ihl >> 4
        ihl = (ver_ihl & 0xF) * 4
        if version != 4:
            raise PacketError("not IPv4 (version=%d)" % version)
        if ihl != IPV4_HEADER_LEN:
            raise PacketError("IP options unsupported (ihl=%d)" % ihl)
        if total_len > len(raw):
            raise PacketError("truncated IPv4 packet")
        if internet_checksum(raw[0:IPV4_HEADER_LEN]) != 0:
            raise PacketError("bad IPv4 header checksum")
        return cls(bytes_to_ip(src), bytes_to_ip(dst), proto,
                   raw[IPV4_HEADER_LEN:total_len], ttl, ident)
