"""The unified protocol surface: one codec contract for every wire format.

Demikernel queues carry atomic elements, but nothing guarantees one
element == one protocol message: a pipelining client packs many requests
into one push, a slow sender splits one request across several, and the
POSIX path re-chunks on top.  Every server-side protocol therefore has
to be *incremental*: bytes in, zero-or-more complete messages out, with
partial state buffered between feeds.

:class:`Codec` is the one contract every wire format implements:

* server side - ``feed(bytes) -> [Request]`` and ``encode(Response) ->
  bytes``;
* client side - ``encode_request(Request) -> bytes`` and
  ``feed_responses(bytes) -> [Response]``.

Concrete codecs: :class:`~repro.apps.proto.resp.RespCodec` (Redis),
:class:`~repro.apps.proto.memcached.MemcachedCodec` (memcached binary),
and the ported legacy formats in :mod:`repro.apps.proto.legacy`.  A
:class:`CodecError` means the stream is desynchronized - fatal for the
connection; protocol-level errors the format can carry inline come back
as ``Request(op="invalid")`` so the server can answer without hanging
up.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "CodecError",
    "Request",
    "Response",
    "Codec",
    "ST_STORED",
    "ST_VALUE",
    "ST_MISS",
    "ST_COUNT",
    "ST_PONG",
    "ST_ERROR",
]

#: refuse absurd field lengths: protects against desync bugs
MAX_FIELD_LEN = 64 * 1024 * 1024


class CodecError(Exception):
    """The byte stream is malformed or desynchronized (fatal per conn)."""


# -- response statuses (protocol-independent) -------------------------------
ST_STORED = "stored"   # write acknowledged
ST_VALUE = "value"     # read hit, value attached
ST_MISS = "miss"       # read miss / delete of an absent key
ST_COUNT = "count"     # numeric result (RESP ``:n``, delete counts)
ST_PONG = "pong"       # liveness reply (PING / binary noop)
ST_ERROR = "error"     # inline protocol error, message attached


@dataclass
class Request:
    """One decoded operation, protocol-independent.

    ``op`` is one of ``get | set | delete | mset | ping | noop``, or
    ``invalid`` for a request the codec could frame but not accept
    (unknown command, wrong arity) - the server answers those with an
    inline error instead of dropping the connection.  ``opaque`` rides
    along for formats that echo it (memcached binary).
    """

    op: str
    key: bytes = b""
    value: bytes = b""
    ttl_ms: int = 0
    pairs: Tuple[Tuple[bytes, bytes], ...] = ()   # mset payload
    opaque: int = 0
    error: str = ""                                # op == "invalid"


@dataclass
class Response:
    """One reply, protocol-independent; the codec picks the wire shape."""

    status: str
    value: bytes = b""
    count: int = 0
    message: str = ""          # ST_ERROR text
    opaque: int = 0
    cas: int = 0
    op: str = ""               # echo of the request op (binary formats
                               # mirror the opcode)


class _StreamBuffer:
    """Accumulated stream bytes with try-consume parsing helpers."""

    def __init__(self):
        self._data = bytearray()

    def extend(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def __len__(self) -> int:
        return len(self._data)

    def peek(self, n: int, offset: int = 0) -> bytes:
        return bytes(self._data[offset:offset + n])

    def discard(self, n: int) -> None:
        del self._data[:n]

    def find(self, needle: bytes, start: int = 0) -> int:
        return self._data.find(needle, start)


class Codec(ABC):
    """A full-duplex incremental protocol codec.

    One instance per connection *per direction pair*: the server-side
    buffer (``feed``) and the client-side buffer (``feed_responses``)
    are independent, so one object can serve a loopback test, but state
    never leaks between the two directions.
    """

    #: registry name ("resp", "memcached", "legacy-kv")
    name = "?"

    def __init__(self):
        self._rx = _StreamBuffer()        # server side: requests in
        self._rx_replies = _StreamBuffer()  # client side: responses in

    # -- server side -------------------------------------------------------
    def feed(self, chunk: bytes) -> List[Request]:
        """Consume stream bytes; return every *complete* request."""
        self._rx.extend(chunk)
        out: List[Request] = []
        while True:
            req = self._try_decode_request(self._rx)
            if req is None:
                break
            out.append(req)
        return out

    @abstractmethod
    def encode(self, response: Response) -> bytes:
        """The wire bytes for one reply."""

    # -- client side -------------------------------------------------------
    @abstractmethod
    def encode_request(self, request: Request) -> bytes:
        """The wire bytes for one request."""

    def feed_responses(self, chunk: bytes) -> List[Response]:
        """Consume reply-stream bytes; return every complete response."""
        self._rx_replies.extend(chunk)
        out: List[Response] = []
        while True:
            resp = self._try_decode_response(self._rx_replies)
            if resp is None:
                break
            out.append(resp)
        return out

    # -- message transports ------------------------------------------------
    @classmethod
    def decode_message(cls, data: bytes) -> Request:
        """Decode one self-contained request (a datagram, a framed record).

        There is no stream behind such a message to deliver the rest, so
        truncated or trailing bytes raise :class:`CodecError` instead of
        being buffered.
        """
        return _exactly_one(cls().feed(data), "request", data)

    @classmethod
    def decode_reply(cls, data: bytes) -> Response:
        """Decode one self-contained reply; see :meth:`decode_message`."""
        return _exactly_one(cls().feed_responses(data), "reply", data)

    # -- the incremental core each format implements -----------------------
    @abstractmethod
    def _try_decode_request(self, buf: _StreamBuffer):
        """One complete :class:`Request` consumed from *buf*, or ``None``.

        Must consume nothing when the buffered bytes do not finish a
        message, and must raise :class:`CodecError` on desync.
        """

    @abstractmethod
    def _try_decode_response(self, buf: _StreamBuffer):
        """One complete :class:`Response` consumed from *buf*, or ``None``."""

    # -- introspection -----------------------------------------------------
    def pending(self) -> bool:
        """True if a partially-received message is buffered."""
        return bool(len(self._rx) or len(self._rx_replies))


def _exactly_one(messages: list, what: str, data: bytes):
    if len(messages) != 1:
        raise CodecError("expected one %s in %d bytes, found %d"
                         % (what, len(data), len(messages)))
    return messages[0]


def check_len(n: int, what: str) -> int:
    """Validate a wire-declared length before trusting it."""
    if n < 0 or n > MAX_FIELD_LEN:
        raise CodecError("absurd %s length %d" % (what, n))
    return n
