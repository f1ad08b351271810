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
Read-ahead pays off for a reader that walks the log forward, one miss
at a time, which is every reader the store has: a reader jumping about,
or several misses in flight at once, would each fetch a whole depth.
It is one buffer, not a page cache - no second copy, no eviction
policy - and it is dropped whenever it could lie: at every ``sync()``
(the partial head block is rewritten), at ``mount()``, and at any record
that fails its checks, so a retry goes back to flash.
"""

from __future__ import annotations

import struct
import zlib
from typing import Generator, List, Optional, Tuple

from ..hw.nvme import NvmeDevice
from ..sim.cpu import Core
from ..telemetry import names

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
        #: in, as (first_lba, bytes), so the records that share them need
        #: no further command
        self._read_span: Tuple[int, bytes] = (0, b"")
        #: bumped at every drop, so a read that was in flight across one
        #: does not install what it fetched before it
        self._span_drops = 0
        #: blocks a miss reads, from the record's first block:
        #: the device's bandwidth-delay product, so reading ahead at most
        #: doubles the miss's device time (the whole range if transfer is
        #: free)
        block_ns = self.block_size * self.costs.nvme_ns_per_byte
        self._ahead_blocks = (max(1, int(self.costs.nvme_read_ns // block_ns))
                              if block_ns else self.lba_count)
        self.records_appended = 0
        self.records_read = 0

    # -- geometry --------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.lba_count * self.block_size

    def _lba_of(self, offset: int) -> int:
        return self.lba_start + offset // self.block_size

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
        self.records_appended += 1
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
        self._drop_read_span()
        yield self.nvme.submit_write(self._lba_of(start_offset), bytes(data))
        yield self.core.busy(self.costs.spdk_submit_ns)
        yield self.nvme.submit_flush()
        flushed = len(self._buffer)
        self._buffer.clear()
        self._buffer_base = self.tail
        return flushed

    # -- reads -----------------------------------------------------------------------
    def read(self, record_id: int) -> Generator:
        """Sim-coroutine: fetch one record's payload by id."""
        if record_id < 0 or record_id >= self.tail:
            raise LogError("bad record id %d" % record_id)
        # Serve from the write buffer when the record is not yet flushed.
        if record_id >= self._buffer_base:
            local = record_id - self._buffer_base
            header = bytes(self._buffer[local:local + RECORD_HEADER_LEN])
            length = _HEADER.unpack(header)[1]
            payload = bytes(self._buffer[local + RECORD_HEADER_LEN:
                                         local + RECORD_HEADER_LEN + length])
            yield self.core.busy(self.costs.spdk_submit_ns // 4)
        else:
            header, payload = yield from self._read_from_device(record_id)
        why = self._mismatch(header, payload)
        if why:
            raise LogError(why % record_id)
        self.records_read += 1
        return payload

    def _read_from_device(self, offset: int) -> Generator:
        """Header and payload of the flushed record at *offset*.

        Served from the read span when it holds every block the record
        covers: a quarter submission of CPU and no command, what
        :meth:`read` charges for a record still in the write buffer, and
        only the record's bytes are copied out.  Otherwise one submission
        reads the blocks the span is missing - those past the prefix it
        holds, or all of them - reading ahead in that same command, and
        those blocks become the span.  A read that raises installs
        nothing.
        """
        bs = self.block_size
        first_lba = self._lba_of(offset)
        start = offset % bs
        body = start + RECORD_HEADER_LEN
        span_lba, span = self._read_span
        drops = self._span_drops
        skip = (first_lba - span_lba) * bs
        # The record's header and payload, indexed in the span in place.
        at = skip + start
        head = at + RECORD_HEADER_LEN
        if skip >= 0 and head <= len(span):
            end = head + _HEADER.unpack_from(span, at)[1]
            if end <= len(span):
                self.nvme.count(names.LOG_READ_SPAN_HITS)
                yield self.core.busy(self.costs.spdk_submit_ns // 4)
                return span[at:head], span[head:end]
        self.nvme.count(names.LOG_READ_SPAN_MISSES)
        yield self.core.busy(self.costs.spdk_submit_ns)
        held = span[skip:] if skip >= 0 else b""
        # Read ahead, but not into blocks no sync has filled yet - the
        # flushed tail lies inside the LBA range, so the read does too.
        flushed = -(-self._buffer_base // bs) - (first_lba - self.lba_start)
        need = max(body, min(self._ahead_blocks, flushed) * bs)
        held = yield from self._cover(first_lba, held, need)
        end = body + _HEADER.unpack_from(held, start)[1]
        held = yield from self._cover(first_lba, held, end)
        if drops == self._span_drops:
            self._read_span = (first_lba, held)
        return held[start:body], held[body:end]

    def _cover(self, first_lba: int, held: bytes, need: int) -> Generator:
        """*held*, the blocks from *first_lba* on, read forward until it
        is at least *need* bytes."""
        if len(held) < need:
            missing = ((need - len(held) + self.block_size - 1)
                       // self.block_size)
            held += yield self.nvme.submit_read(
                first_lba + len(held) // self.block_size, missing)
        return held

    def _drop_read_span(self) -> None:
        self._read_span = (0, b"")
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
        self._drop_read_span()
        return why

    # -- scans ("BPF for storage") ------------------------------------------------------
    def scan(self, predicate) -> Generator:
        """Sim-coroutine: on-device predicate scan over the flushed log.

        Ships the record-walking loop into the NVMe controller
        (:meth:`~repro.hw.nvme.NvmeDevice.submit_scan`): the device
        streams the flushed region past a program that validates record
        framing and applies *predicate* to each payload, and only the
        matches cross PCIe.  The host submits one command and sleeps -
        zero host CPU charged for the loop.  Returns a list of
        ``(record_id, payload)`` matches.  Unflushed (buffered) records
        are not visible to the device; :meth:`sync` first if they matter.
        """
        flushed = self._buffer_base
        yield self.core.busy(self.costs.spdk_submit_ns)
        if flushed < RECORD_HEADER_LEN:
            return []
        nblocks = (flushed + self.block_size - 1) // self.block_size

        def program(data: bytes):
            matches = []
            offset = 0
            while offset + RECORD_HEADER_LEN <= flushed:
                magic, length, crc = _HEADER.unpack_from(data, offset)
                if magic != _MAGIC:
                    break
                payload = bytes(data[offset + RECORD_HEADER_LEN:
                                     offset + RECORD_HEADER_LEN + length])
                if len(payload) != length:
                    raise LogError(_TRUNCATED % offset)
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    raise LogError(_BAD_CHECKSUM % offset)
                if predicate(payload):
                    matches.append((offset, payload))
                offset += RECORD_HEADER_LEN + length
            return matches

        matches = yield self.nvme.submit_scan(
            self._lba_of(0), nblocks, program)
        self.nvme.count(names.NVME_SCAN_MATCHES, len(matches))
        return matches

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
            header, payload = yield from self._read_from_device(offset)
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
        self._drop_read_span()
        offset = 0
        found: List[int] = []
        # The valid bytes of the block *offset* is in, for the next sync.
        tail_block = b""
        while offset + RECORD_HEADER_LEN <= self.capacity_bytes:
            try:
                header, payload = yield from self._read_from_device(offset)
            except Exception:
                break
            if self._mismatch(header, payload):
                break
            found.append(offset)
            offset += RECORD_HEADER_LEN + len(payload)
            fill = offset % self.block_size
            tail_block = (tail_block + header + payload)[-fill:] if fill else b""
        self.tail = offset
        self._buffer.clear()
        self._buffer_base = offset
        self._tail_block = tail_block
        return found
