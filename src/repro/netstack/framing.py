"""Message framing over byte streams - and the cost of not having it.

Demikernel queues carry *atomic data units* (section 4.2); a TCP byte
stream does not.  A libOS carrying queue semantics over TCP must insert
framing (section 5.2); this module provides the standard 4-byte
length-prefix scheme.

The :class:`Deframer` also measures the paper's C3 claim: every time an
application inspects a stream and finds its message still incomplete, it
has burned a wake-up + syscall + inspection for nothing.  The deframer
counts those ``partial_inspections`` so benchmarks can report them.
"""

from __future__ import annotations

import struct
from typing import List, Optional

__all__ = ["frame_message", "Deframer", "FramingError"]

LENGTH_PREFIX_LEN = 4
_LEN = struct.Struct("!I")

#: refuse absurd lengths: protects against desync bugs
MAX_MESSAGE_LEN = 64 * 1024 * 1024


class FramingError(Exception):
    """Stream desynchronized (bad length prefix)."""


def frame_message(payload: bytes) -> bytes:
    """Prefix *payload* with its 4-byte big-endian length."""
    if len(payload) > MAX_MESSAGE_LEN:
        raise FramingError("message of %d bytes exceeds limit" % len(payload))
    return _LEN.pack(len(payload)) + payload


class Deframer:
    """Incremental parser of length-prefixed messages from stream chunks."""

    def __init__(self):
        self._buffer = bytearray()
        self._need: Optional[int] = None
        self.partial_inspections = 0

    def feed(self, chunk: bytes) -> List[bytes]:
        """Consume a stream chunk; return every *complete* message in it.

        Returns ``[]`` when the accumulated bytes still do not finish a
        message - that is a wasted inspection, and it is counted.
        """
        self._buffer.extend(chunk)
        out: List[bytes] = []
        while True:
            if self._need is None:
                if len(self._buffer) < LENGTH_PREFIX_LEN:
                    break
                (need,) = _LEN.unpack(bytes(self._buffer[:LENGTH_PREFIX_LEN]))
                if need > MAX_MESSAGE_LEN:
                    raise FramingError("bad length prefix %d" % need)
                del self._buffer[:LENGTH_PREFIX_LEN]
                self._need = need
            if len(self._buffer) < self._need:
                break
            payload = bytes(self._buffer[:self._need])
            del self._buffer[:self._need]
            self._need = None
            out.append(payload)
        if not out:
            self.partial_inspections += 1
        return out

    def pending(self) -> bool:
        """True if a partially-received message is buffered."""
        return bool(self._buffer) or self._need is not None
