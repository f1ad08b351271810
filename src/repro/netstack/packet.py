"""Wire-format helpers shared by every protocol layer.

Frames on the fabric are real ``bytes``: every header here packs to and
parses from its genuine wire format (RFC 791/793/768 layouts), so the
stack can be tested the way a real one is - by inspecting octets.
"""

from __future__ import annotations

import struct
from functools import lru_cache

__all__ = [
    "internet_checksum",
    "mac_to_bytes",
    "bytes_to_mac",
    "ip_to_bytes",
    "bytes_to_ip",
    "pseudo_header",
    "PacketError",
]


class PacketError(Exception):
    """Malformed or truncated packet."""


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement sum over 16-bit words.

    Folding the carries back in is arithmetic modulo 0xFFFF (2**16 is
    congruent to 1), so the whole sum is one big-integer remainder.  The
    fold reaches zero only for all-zero data: any other multiple of
    0xFFFF folds to 0xFFFF, which the remainder alone would lose.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8  # the odd trailing byte is the high half of its word
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return 0xFFFF - total


#: The address codecs re-parse the same few strings for every header; a
#: run talks to a handful of hosts, so a small bound holds them all.
#: Errors are not cached: a bad address raises on every call.
_ADDRESS_CACHE = 1024


@lru_cache(maxsize=_ADDRESS_CACHE)
def mac_to_bytes(mac: str) -> bytes:
    """``"02:00:00:00:00:01"`` -> 6 bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise PacketError("bad MAC %r" % mac)
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError:
        raise PacketError("bad MAC %r" % mac)


@lru_cache(maxsize=_ADDRESS_CACHE)
def bytes_to_mac(raw: bytes) -> str:
    if len(raw) != 6:
        raise PacketError("MAC must be 6 bytes, got %d" % len(raw))
    return ":".join("%02x" % b for b in raw)


@lru_cache(maxsize=_ADDRESS_CACHE)
def ip_to_bytes(ip: str) -> bytes:
    """``"10.0.0.1"`` -> 4 bytes."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise PacketError("bad IPv4 address %r" % ip)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise PacketError("bad IPv4 address %r" % ip)
    if any(v < 0 or v > 255 for v in values):
        raise PacketError("bad IPv4 address %r" % ip)
    return struct.pack("!BBBB", *values)


@lru_cache(maxsize=_ADDRESS_CACHE)
def bytes_to_ip(raw: bytes) -> str:
    if len(raw) != 4:
        raise PacketError("IPv4 address must be 4 bytes")
    return "%d.%d.%d.%d" % tuple(raw)


@lru_cache(maxsize=_ADDRESS_CACHE)
def _pseudo_addresses(src_ip: str, dst_ip: str, proto: int) -> bytes:
    return ip_to_bytes(src_ip) + ip_to_bytes(dst_ip) + bytes((0, proto))


def pseudo_header(src_ip: str, dst_ip: str, proto: int, length: int) -> bytes:
    """The TCP/UDP checksum pseudo-header; only *length* varies per segment."""
    return _pseudo_addresses(src_ip, dst_ip, proto) + length.to_bytes(2, "big")
