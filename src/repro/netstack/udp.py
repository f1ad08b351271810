"""UDP (RFC 768)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .packet import PacketError, internet_checksum, pseudo_header

__all__ = ["UdpDatagram", "UDP_HEADER_LEN", "udp_checksum_ok"]

UDP_HEADER_LEN = 8


def udp_checksum_ok(raw: bytes, src_ip: str, dst_ip: str) -> bool:
    """Verify a raw UDP datagram's checksum over the IPv4 pseudo-header.

    A stored checksum of zero means the sender opted out (RFC 768) and
    always verifies.
    """
    if len(raw) < UDP_HEADER_LEN:
        return False
    if raw[6:8] == b"\x00\x00":
        return True
    pseudo = pseudo_header(src_ip, dst_ip, 17, len(raw))
    return internet_checksum(pseudo + raw) == 0


@dataclass
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes

    def pack(self, src_ip: str, dst_ip: str, with_checksum: bool = True) -> bytes:
        length = UDP_HEADER_LEN + len(self.payload)
        header = struct.pack("!HHHH", self.src_port, self.dst_port, length, 0)
        if with_checksum:
            pseudo = pseudo_header(src_ip, dst_ip, 17, length)
            csum = internet_checksum(pseudo + header + self.payload)
            if csum == 0:
                csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
            header = header[:6] + struct.pack("!H", csum)
        return header + self.payload

    @classmethod
    def unpack(cls, raw: bytes) -> "UdpDatagram":
        if len(raw) < UDP_HEADER_LEN:
            raise PacketError("UDP datagram too short")
        src_port, dst_port, length, _csum = struct.unpack("!HHHH", raw[0:8])
        if length < UDP_HEADER_LEN or length > len(raw):
            raise PacketError("bad UDP length %d" % length)
        return cls(src_port=src_port, dst_port=dst_port, payload=raw[8:length])
