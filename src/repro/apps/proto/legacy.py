"""The repo's original binary KV and cache formats, as Codecs.

This module is the only definition of both wire formats (all integers
big-endian); every server, client and NIC program that speaks them holds
one of these codecs.  Parsing is incremental - a header split across two
queue pops waits for the rest instead of decoding garbage::

    kv     request:  op:u8 ('G'|'P')  klen:u16  key  [P: vlen:u32  value]
           response: status:u8 ('K'|'N')  [K: vlen:u32  value]
    cache  request:  op:u8 ('S'|'G'|'D')  klen:u16  key
                     [S: ttl_ms:u32  vlen:u32  value]
           response: status:u8 ('H' hit | 'M' miss | 'S' stored |
                     'D' deleted)  [H: vlen:u32  value]

Neither format can carry an inline error reply (there is no status code
for "bad request" on the wire), so asking either codec to encode
``ST_ERROR`` raises: the server's only honest move is closing the
connection.
"""

from __future__ import annotations

import struct
from typing import Optional

from .codec import (ST_COUNT, ST_MISS, ST_STORED, ST_VALUE, Codec,
                    CodecError, Request, Response, check_len)

__all__ = ["LegacyKvCodec", "LegacyCacheCodec"]

_HDR = struct.Struct("!BH")      # op + key length
_U32 = struct.Struct("!I")

# kv opcodes / statuses
_KV_GET = ord("G")
_KV_PUT = ord("P")
_KV_OK = ord("K")
_KV_MISSING = ord("N")

# cache opcodes / statuses
_C_SET = ord("S")
_C_GET = ord("G")
_C_DELETE = ord("D")
_C_HIT = ord("H")
_C_MISS = ord("M")
_C_STORED = ord("S")
_C_DELETED = ord("D")


def _try_header(buf, ops) -> Optional[tuple]:
    """(op, key, offset past key) or None; raises on unknown op."""
    if len(buf) < _HDR.size:
        return None
    op, klen = _HDR.unpack(buf.peek(_HDR.size))
    if op not in ops:
        raise CodecError("unknown opcode 0x%02x" % op)
    check_len(klen, "key")
    if len(buf) < _HDR.size + klen:
        return None
    return op, buf.peek(klen, _HDR.size), _HDR.size + klen


class LegacyKvCodec(Codec):
    """``op:u8('G'|'P') klen:u16 key [vlen:u32 value]`` - the KV format."""

    name = "legacy-kv"

    def _try_decode_request(self, buf) -> Optional[Request]:
        got = _try_header(buf, (_KV_GET, _KV_PUT))
        if got is None:
            return None
        op, key, offset = got
        if op == _KV_GET:
            buf.discard(offset)
            return Request(op="get", key=key)
        if len(buf) < offset + _U32.size:
            return None
        (vlen,) = _U32.unpack(buf.peek(_U32.size, offset))
        check_len(vlen, "value")
        if len(buf) < offset + _U32.size + vlen:
            return None
        value = buf.peek(vlen, offset + _U32.size)
        buf.discard(offset + _U32.size + vlen)
        return Request(op="set", key=key, value=value)

    def encode(self, response: Response) -> bytes:
        status = response.status
        if status == ST_STORED:
            return struct.pack("!BI", _KV_OK, 0)
        if status == ST_VALUE:
            return self.value_header(len(response.value)) + response.value
        if status == ST_MISS:
            return bytes([_KV_MISSING])
        raise CodecError("legacy-kv cannot encode status %r" % status)

    @staticmethod
    def value_header(vlen: int) -> bytes:
        """A hit reply's bytes up to the value, for zero-copy senders
        whose value segment is the stored buffer itself."""
        return struct.pack("!BI", _KV_OK, vlen)

    def encode_request(self, request: Request) -> bytes:
        if request.op == "get":
            return _HDR.pack(_KV_GET, len(request.key)) + request.key
        if request.op == "set":
            return (_HDR.pack(_KV_PUT, len(request.key)) + request.key
                    + _U32.pack(len(request.value)) + request.value)
        raise CodecError("legacy-kv cannot encode request op %r"
                         % request.op)

    def _try_decode_response(self, buf) -> Optional[Response]:
        if len(buf) < 1:
            return None
        status = buf.peek(1)[0]
        if status == _KV_MISSING:
            buf.discard(1)
            return Response(status=ST_MISS)
        if status != _KV_OK:
            raise CodecError("unknown kv status 0x%02x" % status)
        if len(buf) < 1 + _U32.size:
            return None
        (vlen,) = _U32.unpack(buf.peek(_U32.size, 1))
        check_len(vlen, "value")
        if len(buf) < 1 + _U32.size + vlen:
            return None
        value = buf.peek(vlen, 1 + _U32.size)
        buf.discard(1 + _U32.size + vlen)
        return Response(status=ST_VALUE, value=value)


class LegacyCacheCodec(Codec):
    """``op:u8('S'|'G'|'D') klen:u16 key [S: ttl:u32 vlen:u32 value]``."""

    name = "legacy-cache"

    def _try_decode_request(self, buf) -> Optional[Request]:
        got = _try_header(buf, (_C_SET, _C_GET, _C_DELETE))
        if got is None:
            return None
        op, key, offset = got
        if op != _C_SET:
            buf.discard(offset)
            return Request(op="get" if op == _C_GET else "delete", key=key)
        if len(buf) < offset + 2 * _U32.size:
            return None
        (ttl_ms,) = _U32.unpack(buf.peek(_U32.size, offset))
        (vlen,) = _U32.unpack(buf.peek(_U32.size, offset + _U32.size))
        check_len(vlen, "value")
        if len(buf) < offset + 2 * _U32.size + vlen:
            return None
        value = buf.peek(vlen, offset + 2 * _U32.size)
        buf.discard(offset + 2 * _U32.size + vlen)
        return Request(op="set", key=key, value=value, ttl_ms=ttl_ms)

    def encode(self, response: Response) -> bytes:
        status = response.status
        if status == ST_VALUE:
            return struct.pack("!BI", _C_HIT, len(response.value)) \
                + response.value
        if status == ST_MISS:
            return bytes([_C_MISS])
        if status == ST_STORED:
            return bytes([_C_STORED])
        if status == ST_COUNT:
            return bytes([_C_DELETED if response.count > 0 else _C_MISS])
        raise CodecError("legacy-cache cannot encode status %r" % status)

    def encode_request(self, request: Request) -> bytes:
        op = request.op
        if op == "get":
            return _HDR.pack(_C_GET, len(request.key)) + request.key
        if op == "delete":
            return _HDR.pack(_C_DELETE, len(request.key)) + request.key
        if op == "set":
            return (_HDR.pack(_C_SET, len(request.key)) + request.key
                    + struct.pack("!II", request.ttl_ms, len(request.value))
                    + request.value)
        raise CodecError("legacy-cache cannot encode request op %r" % op)

    def _try_decode_response(self, buf) -> Optional[Response]:
        if len(buf) < 1:
            return None
        status = buf.peek(1)[0]
        if status == _C_MISS:
            buf.discard(1)
            return Response(status=ST_MISS)
        if status == _C_STORED:
            buf.discard(1)
            return Response(status=ST_STORED)
        if status == _C_DELETED:
            buf.discard(1)
            return Response(status=ST_COUNT, count=1)
        if status != _C_HIT:
            raise CodecError("unknown cache status 0x%02x" % status)
        if len(buf) < 1 + _U32.size:
            return None
        (vlen,) = _U32.unpack(buf.peek(_U32.size, 1))
        check_len(vlen, "value")
        if len(buf) < 1 + _U32.size + vlen:
            return None
        value = buf.peek(vlen, 1 + _U32.size)
        buf.discard(1 + _U32.size + vlen)
        return Response(status=ST_VALUE, value=value)
