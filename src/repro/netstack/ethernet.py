"""Ethernet II framing."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .packet import PacketError, bytes_to_mac, mac_to_bytes

__all__ = ["EthernetFrame", "ethernet_header", "ETHERTYPE_IPV4",
           "ETHERTYPE_ARP", "ETH_HEADER_LEN"]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETH_HEADER_LEN = 14

_ETHERTYPE = struct.Struct("!H")


def ethernet_header(dst: str, src: str, ethertype: int) -> bytes:
    """The 14 bytes in front of every payload from *src* to *dst*."""
    return mac_to_bytes(dst) + mac_to_bytes(src) + _ETHERTYPE.pack(ethertype)


@dataclass
class EthernetFrame:
    dst: str
    src: str
    ethertype: int
    payload: bytes

    def pack(self) -> bytes:
        return (ethernet_header(self.dst, self.src, self.ethertype)
                + self.payload)

    @classmethod
    def unpack(cls, raw: bytes) -> "EthernetFrame":
        if len(raw) < ETH_HEADER_LEN:
            raise PacketError("ethernet frame too short: %d bytes" % len(raw))
        (ethertype,) = _ETHERTYPE.unpack_from(raw, 12)
        return cls(bytes_to_mac(raw[0:6]), bytes_to_mac(raw[6:12]), ethertype,
                   raw[14:])
