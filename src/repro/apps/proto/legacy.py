"""The repo's original binary KV format, as a Codec.

This module is the only definition of the wire format (all integers
big-endian); every server, client and NIC program that speaks it holds
this codec.  Parsing is incremental - a header split across two queue
pops waits for the rest instead of decoding garbage::

    request:  op:u8 ('G'|'P')  klen:u16  key  [P: vlen:u32  value]
    response: status:u8 ('K'|'N')  [K: vlen:u32  value]

The format cannot carry an inline error reply (there is no status code
for "bad request" on the wire), so asking the codec to encode
``ST_ERROR`` raises: the server's only honest move is closing the
connection.
"""

from __future__ import annotations

import struct
from typing import Optional

from .codec import (ST_MISS, ST_STORED, ST_VALUE, Codec, CodecError,
                    Request, Response, check_len)

__all__ = ["LegacyKvCodec"]

_HDR = struct.Struct("!BH")      # op + key length
_U32 = struct.Struct("!I")

_KV_GET = ord("G")
_KV_PUT = ord("P")
_KV_OK = ord("K")
_KV_MISSING = ord("N")


class LegacyKvCodec(Codec):
    """``op:u8('G'|'P') klen:u16 key [vlen:u32 value]`` - the KV format."""

    name = "legacy-kv"

    def _try_decode_request(self, buf) -> Optional[Request]:
        if len(buf) < _HDR.size:
            return None
        op, klen = _HDR.unpack(buf.peek(_HDR.size))
        if op not in (_KV_GET, _KV_PUT):
            raise CodecError("unknown opcode 0x%02x" % op)
        check_len(klen, "key")
        offset = _HDR.size + klen
        if len(buf) < offset:
            return None
        key = buf.peek(klen, _HDR.size)
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
