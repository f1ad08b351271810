"""Demikernel core types: scatter-gather arrays, qtokens, queue results.

These mirror Figure 3 of the paper: data-path calls move ``sgarray``
values (atomic data units built from registered-memory segments) and
return ``qtoken`` handles that ``wait_*`` resolves to results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # typing-only: keeps core.types import-cycle-free so
    # hw/* modules can import the exception types at module load.
    from ..memory.buffer import Buffer

__all__ = ["SgaSegment", "Sga", "QToken", "QResult", "DemiError",
           "DemiTimeout", "DeviceFailed", "OP_PUSH", "OP_POP"]

OP_PUSH = "push"
OP_POP = "pop"


class DemiError(Exception):
    """Invalid Demikernel API usage (bad qd, closed queue, bad sga...)."""


class DemiTimeout(DemiError):
    """``wait_any``/``wait_all`` expired before enough tokens completed.

    Replaces the old in-band sentinels (``(-1, None)`` / ``None``) that
    every caller had to remember to inspect.  The unfinished tokens stay
    valid - catch the exception and wait for them later.
    """

    def __init__(self, timeout_ns: Optional[int] = None, tokens=()):
        super().__init__("wait timed out after %s ns" % timeout_ns)
        self.timeout_ns = timeout_ns
        #: the tokens that were being waited on (all still waitable)
        self.tokens = tuple(tokens)


class DeviceFailed(DemiError):
    """A device exhausted its recovery ladder; the operation is lost.

    Raised out of ``wait_*`` when the underlying hardware command could
    not be completed even after the bounded retry/backoff ladder
    (timeout -> abort -> retry -> controller reset).  Unlike a string
    ``QResult.error``, this is typed so callers can distinguish "the
    device is gone" from ordinary protocol errors and fail over (e.g.
    to the kernel path, which keeps serving).
    """

    def __init__(self, device: str, op: str, attempts: int,
                 reason: str = "recovery ladder exhausted"):
        super().__init__("%s: %s failed after %d attempt(s): %s"
                         % (device, op, attempts, reason))
        #: device name (e.g. ``"host0.nvme0"``)
        self.device = device
        #: the hardware operation that was lost (``"read"``/``"write"``...)
        self.op = op
        #: submission attempts made before giving up
        self.attempts = attempts
        self.reason = reason


class SgaSegment:
    """One scatter-gather segment: a slice of a registered buffer.

    A segment is immutable by contract: nothing assigns to one once it
    is made.  Like an :class:`Sga`, it is equal only to itself.
    """

    __slots__ = ("buf", "offset", "length", "nbytes", "lent")

    def __init__(self, buf: Buffer, offset: int = 0,
                 length: Optional[int] = None, lent: bool = False):
        nbytes = length if length is not None else buf.capacity - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > buf.capacity:
            raise DemiError(
                "segment [%d, %d) outside buffer of %d bytes"
                % (offset, offset + nbytes, buf.capacity)
            )
        self.buf = buf
        self.offset = offset
        #: None = the rest of the buffer
        self.length = length
        #: what *length* comes to; a buffer never resizes, so it is
        #: worked out once
        self.nbytes = nbytes
        #: a slice of a buffer someone else owns, holding a reference on
        #: it (``MemoryManager.lend``): freeing it gives that reference back
        self.lent = lent

    def __repr__(self) -> str:  # pragma: no cover
        return "SgaSegment(buf=%r, offset=%r, length=%r, lent=%r)" % (
            self.buf, self.offset, self.length, self.lent)

    def tobytes(self) -> bytes:
        return self.buf.read(self.offset, self.nbytes)


class Sga:
    """A scatter-gather array: the atomic data unit of a Demikernel queue.

    However many segments it gathers, an sga pushed into a queue pops out
    of the other end as a single element (section 4.3).
    """

    __slots__ = ("segments", "nbytes")

    def __init__(self, segments: Iterable[SgaSegment]):
        #: fixed at construction, and with it the element's size
        self.segments: Tuple[SgaSegment, ...] = tuple(segments)
        nbytes = 0
        for seg in self.segments:
            nbytes += seg.nbytes
        self.nbytes = nbytes

    @property
    def nsegments(self) -> int:
        return len(self.segments)

    def tobytes(self) -> bytes:
        """Gather the segments (timing-free; devices do this via DMA)."""
        segments = self.segments
        if len(segments) == 1:
            return segments[0].tobytes()
        return b"".join([seg.tobytes() for seg in segments])

    def dma_ranges(self) -> List[tuple]:
        """(addr, len) pairs for IOMMU validation of zero-copy I/O."""
        return [(seg.buf.addr + seg.offset, max(1, seg.nbytes))
                for seg in self.segments]

    def hold_all(self) -> None:
        """Device takes DMA references on every underlying buffer."""
        for seg in self.segments:
            seg.buf.hold()

    def release_all(self) -> None:
        for seg in self.segments:
            seg.buf.release()

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_buffer(cls, buf: Buffer, length: Optional[int] = None) -> "Sga":
        return cls([SgaSegment(buf, 0, length)])

    @classmethod
    def from_bytes(cls, mm, data: bytes) -> "Sga":
        """Allocate a registered buffer for *data* and wrap it."""
        if not data:
            raise DemiError("cannot build an sga from zero bytes")
        buf = mm.alloc(len(data))
        buf.write(0, data)
        return cls([SgaSegment(buf, 0, len(data))])

    def __repr__(self) -> str:  # pragma: no cover
        return "<Sga %d segs, %d bytes>" % (self.nsegments, self.nbytes)


#: qtokens are plain ints, unique per operation, like the paper's qtoken.
QToken = int


@dataclass
class QResult:
    """What ``wait`` returns: the completed operation and its payload."""

    opcode: str                  # OP_PUSH or OP_POP
    qd: int
    sga: Optional[Sga] = None    # pops carry the arrived element
    nbytes: int = 0
    error: Optional[str] = None
    value: object = None         # operation-specific extra (e.g. new qd)
