"""A log-structured record store over the raw NVMe device.

Section 5.3 of the paper: a Demikernel libOS serves one application, so
it need not drag a whole UNIX filesystem onto the datapath - an
accelerator-friendly custom layout suffices.  This is that layout: an
append-only log of checksummed records, written with SPDK-style
user-space submissions (no syscalls, no VFS, no page cache).

On-disk format, packed back to back and rounded up to block boundaries
only at flush time::

    +--------+--------+----------+---------+
    | magic  | length | checksum | payload |
    | 4 B    | 4 B    | 4 B      | length  |
    +--------+--------+----------+---------+

Record ids are byte offsets into the log, so reads are O(1) block
lookups.  ``mount()`` rebuilds the tail pointer by scanning until the
first invalid header - the crash-recovery story of every log store.

Reads keep the blocks their last device read brought in (the *read
span*): a record whose blocks are all there costs no command.  A miss
reads ahead in the same command, up to the device's bandwidth-delay
product (the blocks whose transfer takes as long as one command's fixed
latency) and never past the flushed tail - so ``mount()`` on a store
that has lost its tail reads exactly the blocks each record needs.
The first read that hits the span then submits the next window - the
same depth, from the block after the span, never past the flushed tail
- and goes on serving the span while the device reads it, so the miss
that reaches the span's end takes those blocks, without a wait if the
reader spent longer on the span than the device on the window.  A
sequential reader then waits on the device once per read-back, not
once per depth.  There is at most one read-ahead per
store; a hit leaves one in flight alone, and replaces only one that has
landed somewhere the reader has left.  A read-ahead that fails or is
aborted is forgotten, and the miss reads as if it never was.
Read-ahead pays off for a reader that walks the log forward, one miss
at a time, which is every reader the store has: a reader jumping about,
or readers of several files of the store taking turns, would each fetch
a whole depth per miss.
It is one registered buffer, not a page cache - no eviction policy -
and the device read lands in it.  A flushed record is read as a *lent*
slice of it (:meth:`~repro.memory.manager.MemoryManager.lend`), not a
copy: the slice holds a reference on the buffer, so when the store lets
the span go the buffer lives on, under free-protection, until the last
slice is given back.  The span, and a read-ahead with it, is dropped
whenever it could lie: at every ``sync()`` (the partial head block is
rewritten), at ``mount()``, and at any record that fails its checks, so
a retry goes back to flash; and a closed file queue drops it, so a log
nobody reads holds no memory.

The on-device :meth:`LogStore.scan` cuts the flushed log into one piece
per flash channel and submits them together, so the device walks them
side by side.  It cuts only where a record starts: the store notes the
first record that starts in each read-ahead window as it appends (and
``mount()`` notes them again from its walk), and picks its cuts from
those.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from typing import Generator, List, Optional, Tuple

from ..core.types import SgaSegment
from ..hw.nvme import NvmeDevice
from ..memory.buffer import Buffer
from ..sim.cpu import Core
from ..sim.engine import Completion

__all__ = ["LogStore", "LogError", "RECORD_HEADER_LEN"]

_MAGIC = 0x4C4F4752  # "LOGR"
_HEADER = struct.Struct("!III")
RECORD_HEADER_LEN = _HEADER.size

_BAD_MAGIC = "bad magic at record %d"
_TRUNCATED = "truncated record %d"
_BAD_CHECKSUM = "checksum mismatch at record %d"


class LogError(Exception):
    """Corrupt record, out-of-space, or bad record id."""


class LogStore:
    """Append-only checksummed record log on one NVMe LBA range."""

    def __init__(self, nvme: NvmeDevice, core: Core,
                 lba_start: int = 0, lba_count: Optional[int] = None):
        self.nvme = nvme
        self.core = core
        #: the host memory the device's reads land in
        self.mm = nvme.host.mm
        self.costs = nvme.costs
        self.block_size = nvme.block_size
        self.lba_start = lba_start
        self.lba_count = (lba_count if lba_count is not None
                          else nvme.capacity_blocks - lba_start)
        #: next append position, as a byte offset into the log region
        self.tail = 0
        #: write buffer: bytes accepted but not yet flushed to flash
        self._buffer = bytearray()
        self._buffer_base = 0  # log offset of _buffer[0]
        #: in-memory copy of the last flushed partial block, so the next
        #: sync's read-modify-write needs no device read
        self._tail_block = b""
        #: the read-side twin: the blocks the last device read brought
        #: in, as (first_lba, the buffer they landed in - None if no
        #: span), so the records that share them need no further command
        self._read_span: Tuple[int, Optional[Buffer]] = (0, None)
        #: bumped at every drop, so a read that was in flight across one
        #: does not install what it fetched before it
        self._span_drops = 0
        #: the read-ahead: (first lba, the read's completion) of the
        #: window after the span, or None; a drop forgets it
        self._ahead: Optional[Tuple[int, Completion]] = None
        #: blocks a miss reads, from the record's first block, and a
        #: read-ahead from the span's end: the device's bandwidth-delay
        #: product, so reading ahead at most doubles the miss's device
        #: time (the whole range if transfer is free)
        block_ns = self.block_size * self.costs.nvme_ns_per_byte
        self._ahead_blocks = (max(1, int(self.costs.nvme_read_ns // block_ns))
                              if block_ns else self.lba_count)
        #: where scan() may cut the log: the first record id that starts
        #: in each read-ahead window, in log order, and the offset where
        #: the window after the last of them begins
        self._starts: List[int] = []
        self._next_window = 0

    # -- geometry --------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.lba_count * self.block_size

    def _lba_of(self, offset: int) -> int:
        return self.lba_start + offset // self.block_size

    def _flushed_end(self) -> int:
        """The LBA after the last block a sync has written (the block
        holding the flushed tail included)."""
        return self.lba_start + -(-self._buffer_base // self.block_size)

    def _note_start(self, record_id: int) -> None:
        """Keep *record_id*, the first record to start in its read-ahead
        window, as a scan cut (the caller checked it is past
        ``_next_window``)."""
        window = self._ahead_blocks * self.block_size
        self._starts.append(record_id)
        self._next_window = (record_id // window + 1) * window

    # -- appends ------------------------------------------------------------------
    def append(self, payload: bytes) -> Generator:
        """Sim-coroutine: buffer one record; returns its record id.

        The record is durable only after :meth:`sync` (like an O_DIRECT
        log writer batching appends).
        """
        if not payload:
            raise LogError("empty records are not allowed")
        record = _HEADER.pack(_MAGIC, len(payload),
                              zlib.crc32(payload) & 0xFFFFFFFF) + payload
        if self.tail + len(record) > self.capacity_bytes:
            raise LogError("log full")
        record_id = self.tail
        self._buffer.extend(record)
        self.tail += len(record)
        if record_id >= self._next_window:
            self._note_start(record_id)
        # User-space bookkeeping only - no syscall, no copy to a kernel
        # buffer; the eventual DMA reads the user pages directly.
        yield self.core.busy(self.costs.spdk_submit_ns // 4)
        return record_id

    def sync(self) -> Generator:
        """Sim-coroutine: flush buffered records to flash and barrier."""
        if not self._buffer:
            yield self.core.busy(self.costs.spdk_submit_ns)
            return 0
        # Pad the dirty region to whole blocks.  The flush rewrites the
        # partial head block if the previous sync ended mid-block.
        start_offset = self._buffer_base - (self._buffer_base % self.block_size)
        head_pad = self._buffer_base - start_offset
        data = bytearray()
        if head_pad:
            # Rewrite the partial head block from the in-memory copy kept
            # by the previous sync - no device read needed.
            data.extend(self._tail_block[:head_pad])
        data.extend(self._buffer)
        tail_pad = (-len(data)) % self.block_size
        # Remember the new partial tail block for the next sync.
        tail_fill = len(data) % self.block_size
        if tail_fill:
            self._tail_block = bytes(data[len(data) - tail_fill:])
        else:
            self._tail_block = b""
        data.extend(b"\x00" * tail_pad)
        yield self.core.busy(self.costs.spdk_submit_ns)
        # The write fills what a span over the old tail block holds as
        # zero padding.
        self.drop_read_span()
        yield self.nvme.submit_write(self._lba_of(start_offset), bytes(data))
        yield self.core.busy(self.costs.spdk_submit_ns)
        yield self.nvme.submit_flush()
        flushed = len(self._buffer)
        self._buffer.clear()
        self._buffer_base = self.tail
        return flushed

    # -- reads -----------------------------------------------------------------------
    def read(self, record_id: int) -> Generator:
        """Sim-coroutine: one record's payload by id, as an
        :class:`~repro.core.types.SgaSegment` the caller frees
        (``LibOS.sga_free``).

        A flushed record is a lent slice of the read span: no copy, and
        its reference keeps the span's buffer alive however long the
        caller holds it.  A record still in the write buffer is copied
        into a buffer of its own, since the next sync reuses that memory.
        """
        if record_id < 0 or record_id >= self.tail:
            raise LogError("bad record id %d" % record_id)
        if record_id >= self._buffer_base:
            local = record_id - self._buffer_base
            header = bytes(self._buffer[local:local + RECORD_HEADER_LEN])
            length = _HEADER.unpack(header)[1]
            payload = bytes(self._buffer[local + RECORD_HEADER_LEN:
                                         local + RECORD_HEADER_LEN + length])
            yield self.core.busy(self.costs.spdk_submit_ns // 4)
            self._accept(header, payload, record_id)
            buf = self.mm.alloc(length)
            buf.write(0, payload)
            return SgaSegment(buf, 0, length)
        buf, at = yield from self._read_from_device(record_id)
        try:
            header, payload = self._unpack(buf, at)
            self._accept(header, payload, record_id)
            return self.mm.lend(SgaSegment(buf, at + RECORD_HEADER_LEN,
                                           len(payload), lent=True))
        finally:
            buf.release()

    def _accept(self, header: bytes, payload: bytes, record_id: int) -> None:
        """Raise :class:`LogError` unless these bytes are the record."""
        why = self._mismatch(header, payload)
        if why:
            raise LogError(why % record_id)

    @staticmethod
    def _unpack(buf: Buffer, at: int) -> Tuple[bytes, bytes]:
        """The header and the payload it claims of the record at *at*."""
        head = at + RECORD_HEADER_LEN
        end = head + _HEADER.unpack_from(buf.data, at)[1]
        return bytes(buf.data[at:head]), bytes(buf.data[head:end])

    def _read_from_device(self, offset: int) -> Generator:
        """``(buf, at)``: a buffer that holds the flushed record at
        *offset* - its header and the payload the header claims - from
        *at* on, with a reference taken for the caller to release.

        Served from the read span when it holds every block the record
        covers: a quarter submission of CPU and no command, what
        :meth:`read` charges for a record still in the write buffer - and
        the first such hit submits the read-ahead (:meth:`_read_ahead`).
        Otherwise the blocks the span is missing - those past the prefix
        it holds, or all of them - come from the read-ahead if it starts
        right there (a quarter submission again, and no wait once it has
        landed), else from one submission that reads ahead in that same
        command.  They land in a new buffer, behind the prefix, which
        replaces the span (one allocation per miss) - unless a drop came
        while the read was in flight: then the store keeps nothing, and
        the buffer lives as long as the caller's reference and what it
        lends.  A read that raises installs nothing.
        """
        bs = self.block_size
        first_lba = self._lba_of(offset)
        start = offset % bs
        body = start + RECORD_HEADER_LEN
        span_lba, span = self._read_span
        drops = self._span_drops
        skip = (first_lba - span_lba) * bs
        if span is not None and skip >= 0:
            # The record's header and payload, indexed in the span in place.
            at = skip + start
            head = at + RECORD_HEADER_LEN
            if (head <= span.capacity and head + _HEADER.unpack_from(
                    span.data, at)[1] <= span.capacity):
                self.nvme.counters.read_span_hits += 1
                span.hold()   # a sync meanwhile lets the span go, not it
                end_lba = span_lba + span.capacity // bs
                ahead = self._ahead
                if ahead is None or (ahead[0] != end_lba
                                     and ahead[1].triggered):
                    yield from self._read_ahead(end_lba)
                yield self.core.busy(self.costs.spdk_submit_ns // 4)
                return span, at
        held = bytes(span.data[skip:]) if span is not None and skip >= 0 \
            else b""
        landed = yield from self._take_ahead(first_lba + len(held) // bs)
        if landed is None:
            self.nvme.counters.read_span_misses += 1
        else:
            held += landed
            yield self.core.busy(self.costs.spdk_submit_ns // 4)
        # Read ahead, but not into blocks no sync has filled yet - the
        # flushed tail lies inside the LBA range, so the read does too.
        flushed = self._flushed_end() - first_lba
        need = max(body, min(self._ahead_blocks, flushed) * bs)
        held = yield from self._cover(first_lba, held, need)
        end = body + _HEADER.unpack_from(held, start)[1]
        held = yield from self._cover(first_lba, held, end)
        install = drops == self._span_drops
        if install:
            self._release_span()   # first, so the allocator can reuse it
        buf = self.mm.alloc(len(held))
        buf.write(0, held)         # where the device's DMA landed
        buf.hold()
        if install:
            self._read_span = (first_lba, buf)
        else:
            self.mm.free(buf)
        return buf, start

    def _read_ahead(self, lba: int) -> Generator:
        """Submit one depth of blocks from *lba*, the block after the
        span, as the read-ahead, never past the flushed tail (nothing if
        the flushed log ends there).  It replaces ``_ahead``, which the
        caller checked is None, or landed and starts elsewhere."""
        window = min(self._ahead_blocks, self._flushed_end() - lba)
        if window <= 0:
            return
        ahead, drops = self._ahead, self._span_drops
        yield self.core.busy(self.costs.spdk_submit_ns)
        # A drop, or another reader's read-ahead, came meanwhile.
        if drops == self._span_drops and self._ahead is ahead:
            self._ahead = (lba, self.nvme.submit_read(lba, window))

    def _take_ahead(self, lba: int) -> Generator:
        """The read-ahead's blocks if it starts at *lba*, else None.
        Blocks that had landed count as a read-ahead hit; waiting for
        them counts as a miss.  A read-ahead that failed or was aborted
        is forgotten and yields None, so the miss reads as if it never
        was."""
        ahead = self._ahead
        if ahead is None or ahead[0] != lba:
            return None
        self._ahead = None
        done = ahead[1]
        waited = not done.triggered
        try:
            blocks = yield done
        except Exception:
            return None
        if waited:
            self.nvme.counters.read_span_misses += 1
        else:
            self.nvme.counters.read_ahead_hits += 1
        return blocks

    def _cover(self, first_lba: int, held: bytes, need: int) -> Generator:
        """*held*, the blocks from *first_lba* on, read forward until it
        is at least *need* bytes: one submission, if any."""
        if len(held) < need:
            missing = ((need - len(held) + self.block_size - 1)
                       // self.block_size)
            yield self.core.busy(self.costs.spdk_submit_ns)
            held += yield self.nvme.submit_read(
                first_lba + len(held) // self.block_size, missing)
        return held

    def _release_span(self) -> None:
        """Let the span's buffer go: freed, or once its lent slices are
        given back."""
        buf = self._read_span[1]
        self._read_span = (0, None)
        if buf is not None:
            self.mm.free(buf)

    def drop_read_span(self) -> None:
        """Let the span go, forget the read-ahead, and make a read in
        flight install nothing."""
        self._release_span()
        self._ahead = None
        self._span_drops += 1

    def _mismatch(self, header: bytes, payload: bytes) -> Optional[str]:
        """Why these bytes are not a record (a message that wants the
        record id), or None.  Bytes that are not drop the read span, so
        the caller's retry goes back to flash."""
        magic, length, crc = _HEADER.unpack(header)
        if magic != _MAGIC:
            why = _BAD_MAGIC
        elif len(payload) != length:
            why = _TRUNCATED
        elif zlib.crc32(payload) & 0xFFFFFFFF != crc:
            why = _BAD_CHECKSUM
        else:
            return None
        self.drop_read_span()
        return why

    # -- scans ("BPF for storage") ------------------------------------------------------
    def scan(self, predicate) -> Generator:
        """Sim-coroutine: on-device predicate scan over the flushed log.

        Ships the record-walking loop into the NVMe controller
        (:meth:`~repro.hw.nvme.NvmeDevice.submit_scan`): the device
        streams the flushed region past a program that validates record
        framing and applies *predicate* to each payload, and only the
        matches cross PCIe.  The log goes out as up to one piece per
        flash channel (:meth:`_cuts`), all submitted before the host
        sleeps, so the pieces run side by side; each submission is
        charged once and the loop not at all.  A piece shares the block
        its cut falls in with the piece before it.  Returns a list of
        ``(record_id, payload)`` matches in log order, as one walk of the
        whole log would: a bad magic ends the log there, whatever the
        pieces after it found, and a record that fails its length or
        checksum raises :class:`LogError` unless the log ended before
        it (a length corrupted to reach past its piece's blocks reads as
        truncated, where one walk may read a bad checksum).  Unflushed
        (buffered) records are not visible to the device; :meth:`sync`
        first if they matter.
        """
        flushed = self._buffer_base
        if flushed < RECORD_HEADER_LEN:
            yield self.core.busy(self.costs.spdk_submit_ns)
            return []
        cuts = self._cuts(flushed)
        pieces = []
        for start, end in zip(cuts, cuts[1:]):
            yield self.core.busy(self.costs.spdk_submit_ns)
            first = start - start % self.block_size
            nblocks = -(-end // self.block_size) - first // self.block_size
            pieces.append(self.nvme.submit_scan(
                self._lba_of(first), nblocks,
                _piece_walk(predicate, first, start, end, flushed)))
        matches = []
        for done in pieces:
            found, whole = yield done
            matches.extend(found)
            if not whole:
                break
        self.nvme.counters.scan_matches += len(matches)
        return matches

    def _cuts(self, flushed: int) -> List[int]:
        """The piece boundaries of a scan of the first *flushed* bytes:
        0, up to one record start per channel but one - spread evenly
        over the starts :meth:`_note_start` kept - and *flushed*."""
        starts = self._starts[1:bisect_left(self._starts, flushed)]
        pieces = min(self.nvme.channels, len(starts) + 1)
        return ([0] + [starts[len(starts) * k // pieces]
                       for k in range(1, pieces)] + [flushed])

    def scan_host(self, predicate) -> Generator:
        """Sim-coroutine: the same predicate scan with the loop on the host.

        The baseline the on-device :meth:`scan` is measured against: every
        flushed block crosses PCIe once (one read each, through the read
        span) and the record walk and the predicate are charged to the
        host CPU, record by record.
        """
        matches = []
        offset = 0
        while offset + RECORD_HEADER_LEN <= self._buffer_base:
            buf, at = yield from self._read_from_device(offset)
            header, payload = self._unpack(buf, at)
            buf.release()
            why = self._mismatch(header, payload)
            if why == _BAD_MAGIC:
                break
            if why:
                raise LogError(why % offset)
            yield self.core.busy(self.costs.pipeline_element_cpu_ns)
            if predicate(payload):
                matches.append((offset, payload))
            offset += RECORD_HEADER_LEN + len(payload)
        return matches

    # -- recovery ----------------------------------------------------------------------
    def mount(self) -> Generator:
        """Sim-coroutine: scan from the start, rebuild the tail pointer.

        Returns the list of valid record ids found.  Stops at the first
        hole or corrupt header, exactly like log replay after a crash.
        """
        self.drop_read_span()
        self._starts, self._next_window = [], 0
        offset = 0
        found: List[int] = []
        # The valid bytes of the block *offset* is in, for the next sync.
        tail_block = b""
        while offset + RECORD_HEADER_LEN <= self.capacity_bytes:
            try:
                buf, at = yield from self._read_from_device(offset)
            except Exception:
                break
            header, payload = self._unpack(buf, at)
            buf.release()
            if self._mismatch(header, payload):
                break
            found.append(offset)
            if offset >= self._next_window:
                self._note_start(offset)
            offset += RECORD_HEADER_LEN + len(payload)
            fill = offset % self.block_size
            tail_block = (tail_block + header + payload)[-fill:] if fill else b""
        self.tail = offset
        self._buffer.clear()
        self._buffer_base = offset
        self._tail_block = tail_block
        return found


def _piece_walk(predicate, base: int, start: int, end: int, flushed: int):
    """The device program for the scan piece whose records start in
    ``[start, end)``, handed the blocks from log offset *base* on: its
    ``(matches, whole)``, where *whole* is False if a bad magic ended
    the log inside it."""

    def program(data: bytes):
        matches = []
        offset = start
        while offset < end and offset + RECORD_HEADER_LEN <= flushed:
            at = offset - base
            magic, length, crc = _HEADER.unpack_from(data, at)
            if magic != _MAGIC:
                return matches, False
            payload = bytes(data[at + RECORD_HEADER_LEN:
                                 at + RECORD_HEADER_LEN + length])
            if len(payload) != length:
                raise LogError(_TRUNCATED % offset)
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise LogError(_BAD_CHECKSUM % offset)
            if predicate(payload):
                matches.append((offset, payload))
            offset += RECORD_HEADER_LEN + length
        return matches, True

    return program
