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

from collections import deque
from typing import Deque, Dict, Generator, List, Tuple

from ..core.api import LibOS
from ..core.queue import DemiQueue
from ..core.types import (OP_POP, OP_PUSH, DemiError, DeviceFailed, QResult,
                          QToken, Sga)
from ..hw.nvme import NvmeDevice
from ..storage.log import LogStore
from ..telemetry import names

__all__ = ["SpdkLibOS"]


class FileQueue(DemiQueue):
    """One append-only file as a queue of records.

    A pop completes with a slice of the log's read span, lent rather
    than copied (a record not yet flushed comes as a copy); free it with
    ``sga_free`` like any popped element.  One read driver serves a
    queue's pops in pop order, so pops armed together share the blocks
    the first one's read brings in.
    """

    kind = "file"

    def __init__(self, libos, qd: int, name: str, store: LogStore,
                 record_ids: List[int]):
        super().__init__(libos, qd)
        self.name = name
        self.store = store
        #: ids of every record in this file, in append order
        self.record_ids: List[int] = list(record_ids)
        #: next record index a pop will return
        self.cursor = 0
        #: (pop token, record id) the read driver has yet to start, in
        #: pop order
        self._reads: Deque[Tuple[QToken, int]] = deque()
        self._reader = None   # the read driver, while it runs

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.sim.spawn(self._append_driver(sga, token),
                       name="%s.q%d.append" % (self.libos.name, self.qd))

    def pop_sga(self, token: QToken) -> None:
        if self.closed:
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        if self.cursor < len(self.record_ids):
            self._read(token)
            return
        # At the tail: wait for the next append (tail-follow semantics).
        self._pending_pops.append(token)

    def _read(self, token: QToken) -> None:
        """Hand *token* the record at the cursor, through the read driver."""
        self._reads.append((token, self.record_ids[self.cursor]))
        self.cursor += 1
        if self._reader is None:
            self._reader = self.sim.spawn(
                self._read_driver(),
                name="%s.q%d.read" % (self.libos.name, self.qd))

    def close(self) -> None:
        """A closed file reads no more: the store lets its read span go,
        so a log nobody reads holds no memory (a reader of another file
        of the same store pays one miss)."""
        super().close()
        self.store.drop_read_span()

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
        libos.counters.file_appends += 1
        # Tail-follow: satisfy a waiting pop with the new record.
        if self._pending_pops:
            self._read(self._pending_pops.popleft())
        libos.qtokens.complete(token, QResult(OP_PUSH, self.qd,
                                              nbytes=sga.nbytes,
                                              value=record_id))

    def _read_driver(self) -> Generator:
        """Complete the queued pops in order, one record read at a time.
        A pop cancelled while its record was read drops its result in the
        qtoken table, and its slice goes straight back."""
        libos = self.libos
        while self._reads:
            token, record_id = self._reads.popleft()
            if self.closed:  # a span read now would outlive the reclaim
                self._complete(token, QResult(OP_POP, self.qd,
                                              error="closed"))
                continue
            try:
                segment = yield from self.store.read(record_id)
            except Exception as err:
                libos.qtokens.complete(token, QResult(
                    OP_POP, self.qd, error=str(err),
                    value=err if isinstance(err, DeviceFailed) else None))
                continue
            libos.counters.file_reads += 1
            sga = Sga([segment])
            if not libos.qtokens.complete(token, QResult(
                    OP_POP, self.qd, sga=sga, nbytes=sga.nbytes,
                    value=record_id)):
                libos.sga_free(sga)
        self._reader = None


class SpdkLibOS(LibOS):
    """Demikernel over a user-space NVMe queue pair + log layout."""

    device_kind = "spdk"

    def __init__(self, host, nvme: NvmeDevice, name: str = "catfish"):
        super().__init__(host, name)
        self.nvme = nvme
        self.store = LogStore(nvme, self.core)
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
        self.counters.count(names.CTRL_CREAT)
        return queue.qd

    def open(self, path: str) -> Generator:
        """Open an existing file queue; pops start at its first record."""
        yield self.core.busy(self.costs.spdk_submit_ns)
        records = self._directory.get(path)
        if records is None:
            raise DemiError("no such file: %s" % path)
        queue = self._install(FileQueue, path, self.store, records)
        self.counters.count(names.CTRL_OPEN)
        return queue.qd

    def fsync(self, qd: int) -> Generator:
        """Flush this libOS's buffered appends to flash and barrier."""
        self._lookup(qd)  # validate the descriptor
        flushed = yield from self.store.sync()
        self.counters.count(names.CTRL_FSYNC)
        return flushed

    def mount(self) -> Generator:
        """Crash recovery: rebuild the directory by scanning the log.

        All records land in a single recovered file ("/recovered") since
        the log itself is the only durable naming we keep.
        """
        record_ids = yield from self.store.mount()
        self._directory = {"/recovered": list(record_ids)}
        return len(record_ids)
