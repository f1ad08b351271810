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
"""

from __future__ import annotations

import struct
import zlib
from typing import Generator, List, Optional

from ..hw.nvme import NvmeDevice
from ..sim.cpu import Core
from ..telemetry import names

__all__ = ["LogStore", "LogError", "RECORD_HEADER_LEN"]

_MAGIC = 0x4C4F4752  # "LOGR"
_HEADER = struct.Struct("!III")
RECORD_HEADER_LEN = _HEADER.size


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
            magic, length, crc = _HEADER.unpack(header)
            payload = bytes(self._buffer[local + RECORD_HEADER_LEN:
                                         local + RECORD_HEADER_LEN + length])
            yield self.core.busy(self.costs.spdk_submit_ns // 4)
        else:
            header_bytes, payload = yield from self._read_from_device(record_id)
            magic, length, crc = _HEADER.unpack(header_bytes)
        if magic != _MAGIC:
            raise LogError("bad magic at record %d" % record_id)
        if len(payload) != length:
            raise LogError("truncated record %d" % record_id)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise LogError("checksum mismatch at record %d" % record_id)
        self.records_read += 1
        return payload

    def _read_from_device(self, offset: int) -> Generator:
        """Read header+payload blocks covering the record at *offset*."""
        yield self.core.busy(self.costs.spdk_submit_ns)
        first_lba = self._lba_of(offset)
        within = offset % self.block_size
        block = yield self.nvme.submit_read(first_lba, 1)
        header = bytes(block[within:within + RECORD_HEADER_LEN])
        if len(header) < RECORD_HEADER_LEN:
            # Header straddles a block boundary.
            nxt = yield self.nvme.submit_read(first_lba + 1, 1)
            header += bytes(nxt[:RECORD_HEADER_LEN - len(header)])
            block = block + nxt
        _magic, length, _crc = _HEADER.unpack(header)
        need = within + RECORD_HEADER_LEN + length
        have = len(block)
        if need > have:
            more_blocks = (need - have + self.block_size - 1) // self.block_size
            rest = yield self.nvme.submit_read(
                first_lba + have // self.block_size, more_blocks)
            block = block + rest
        payload = bytes(block[within + RECORD_HEADER_LEN:
                              within + RECORD_HEADER_LEN + length])
        return header, payload

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
                    raise LogError("truncated record %d" % offset)
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    raise LogError("checksum mismatch at record %d" % offset)
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

        The baseline the on-device :meth:`scan` is measured against: a
        per-record read loop (one or more NVMe reads each, all the data
        crossing PCIe) with the predicate charged to the host CPU.
        """
        matches = []
        offset = 0
        while offset + RECORD_HEADER_LEN <= self._buffer_base:
            header, payload = yield from self._read_from_device(offset)
            magic, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC:
                break
            if len(payload) != length:
                raise LogError("truncated record %d" % offset)
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise LogError("checksum mismatch at record %d" % offset)
            yield self.core.busy(self.costs.pipeline_element_cpu_ns)
            if predicate(payload):
                matches.append((offset, payload))
            offset += RECORD_HEADER_LEN + length
        return matches

    # -- recovery ----------------------------------------------------------------------
    def mount(self) -> Generator:
        """Sim-coroutine: scan from the start, rebuild the tail pointer.

        Returns the list of valid record ids found.  Stops at the first
        hole or corrupt header, exactly like log replay after a crash.
        """
        offset = 0
        found: List[int] = []
        while offset + RECORD_HEADER_LEN <= self.capacity_bytes:
            try:
                header, payload = yield from self._read_from_device(offset)
            except Exception:
                break
            magic, length, crc = _HEADER.unpack(header)
            if magic != _MAGIC or len(payload) != length:
                break
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break
            found.append(offset)
            offset += RECORD_HEADER_LEN + length
        self.tail = offset
        self._buffer.clear()
        self._buffer_base = offset
        return found

    @property
    def unsynced_bytes(self) -> int:
        return len(self._buffer)
