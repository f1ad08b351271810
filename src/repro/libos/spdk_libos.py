"""The SPDK library OS ("Catfish"): Demikernel file queues over raw NVMe.

The storage half of the architecture: ``creat``/``open`` return queue
descriptors (Figure 3's control-path file calls), ``push`` appends a
record, ``pop`` reads the next one.  Underneath sits the custom
log-structured layout of ``repro.storage.log`` driven by SPDK-style
user-space submissions - no syscalls, no VFS, no page-cache copies
(the kernel baseline in ``repro.kernelos.vfs`` pays all three).

Durability: like ``write(2)``, a completed push means *accepted*, not
*durable*; the ``fsync(qd)`` control call flushes and barriers.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..core.api import LibOS
from ..core.queue import DemiQueue
from ..core.types import (OP_POP, OP_PUSH, DemiError, DeviceFailed, QResult,
                          QToken, Sga)
from ..hw.nvme import NvmeDevice
from ..storage.log import LogStore
from ..telemetry import names

__all__ = ["SpdkLibOS", "FileQueue"]


class FileQueue(DemiQueue):
    """One append-only file as a queue of records."""

    kind = "file"

    def __init__(self, libos, qd: int, name: str, store: LogStore,
                 record_ids: Optional[List[int]] = None):
        super().__init__(libos, qd)
        self.name = name
        self.store = store
        #: ids of every record in this file, in append order
        self.record_ids: List[int] = list(record_ids or [])
        #: next record index a pop will return
        self.cursor = 0

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.sim.spawn(self._append_driver(sga, token),
                       name="%s.q%d.append" % (self.libos.name, self.qd))

    def pop_sga(self, token: QToken) -> None:
        if self.closed:
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        if self.cursor < len(self.record_ids):
            record_id = self.record_ids[self.cursor]
            self.cursor += 1
            self.sim.spawn(self._read_driver(record_id, token),
                           name="%s.q%d.read" % (self.libos.name, self.qd))
            return
        # At the tail: wait for the next append (tail-follow semantics).
        self._pending_pops.append(token)

    # -- datapath drivers -----------------------------------------------------
    def _append_driver(self, sga: Sga, token: QToken) -> Generator:
        libos = self.libos
        if self.closed:  # died in the instant it pushed: the element is gone
            self._complete(token, QResult(OP_PUSH, self.qd, error="closed"))
            return
        payload = sga.tobytes()
        sga.hold_all()
        try:
            record_id = yield from self.store.append(payload)
        except Exception as err:
            sga.release_all()
            libos.qtokens.complete(token, QResult(
                OP_PUSH, self.qd, error=str(err),
                value=err if isinstance(err, DeviceFailed) else None))
            return
        sga.release_all()
        self.record_ids.append(record_id)
        libos._directory[self.name] = self.record_ids
        libos.count(names.FILE_APPENDS)
        # Tail-follow: satisfy a waiting pop with the new record.
        if self._pending_pops:
            waiting = self._pending_pops.popleft()
            self.cursor += 1
            self.sim.spawn(self._read_driver(record_id, waiting),
                           name="%s.q%d.read" % (libos.name, self.qd))
        libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                              nbytes=sga.nbytes,
                                              value=record_id))

    def _read_driver(self, record_id: int, token: QToken) -> Generator:
        libos = self.libos
        if self.closed:  # a buffer allocated now would outlive the reclaim
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        try:
            payload = yield from self.store.read(record_id)
        except Exception as err:
            libos.qtokens.complete(token, QResult(
                OP_POP, self.qd, error=str(err),
                value=err if isinstance(err, DeviceFailed) else None))
            return
        buf = libos.mm.alloc(max(1, len(payload)))
        buf.write(0, payload)
        libos.count(names.FILE_READS)
        libos.qtokens.complete(token, QResult(
            OP_POP, self.qd, sga=Sga.from_buffer(buf, len(payload)),
            nbytes=len(payload), value=record_id))


class SpdkLibOS(LibOS):
    """Demikernel over a user-space NVMe queue pair + log layout."""

    device_kind = "spdk"

    def __init__(self, host, nvme: NvmeDevice, name: str = "catfish",
                 core=None, lba_start: int = 0,
                 lba_count: Optional[int] = None):
        super().__init__(host, name, core)
        self.nvme = nvme
        self.store = LogStore(nvme, self.core, lba_start, lba_count)
        #: name -> list of record ids (the "directory")
        self._directory: Dict[str, List[int]] = {}

    # -- control path --------------------------------------------------------------
    def creat(self, path: str) -> Generator:
        """Create a new (empty) file queue."""
        yield self.core.busy(self.costs.spdk_submit_ns)
        if path in self._directory:
            raise DemiError("file exists: %s" % path)
        self._directory[path] = []
        queue = self._install(FileQueue, path, self.store, [])
        self.count(names.CTRL_CREAT)
        return queue.qd

    def open(self, path: str) -> Generator:
        """Open an existing file queue; pops start at its first record."""
        yield self.core.busy(self.costs.spdk_submit_ns)
        records = self._directory.get(path)
        if records is None:
            raise DemiError("no such file: %s" % path)
        queue = self._install(FileQueue, path, self.store, records)
        self.count(names.CTRL_OPEN)
        return queue.qd

    def fsync(self, qd: int) -> Generator:
        """Flush this libOS's buffered appends to flash and barrier."""
        self._lookup(qd)  # validate the descriptor
        flushed = yield from self.store.sync()
        self.count(names.CTRL_FSYNC)
        return flushed

    def mount(self) -> Generator:
        """Crash recovery: rebuild the directory by scanning the log.

        All records land in a single recovered file ("/recovered") since
        the log itself is the only durable naming we keep.
        """
        record_ids = yield from self.store.mount()
        self._directory = {"/recovered": list(record_ids)}
        return len(record_ids)
