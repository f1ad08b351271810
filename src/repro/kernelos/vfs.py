"""The kernel VFS: files over NVMe through a write-back page cache.

This is the storage baseline (experiment STOR): every file I/O pays the
syscall crossing, VFS bookkeeping, a user<->page-cache copy, and - on
cache misses and fsync - the kernel block layer plus device time.  The
SPDK libOS (``repro.libos.spdk_libos``) reaches the same simulated flash
without any of those taxes.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set, Tuple

from ..hw.nvme import NvmeDevice
from ..sim.engine import all_of
from .kernel import Kernel, KernelError, KObject
from ..telemetry import names

__all__ = ["Vfs", "Inode"]


class Inode:
    """One file's metadata: size and block map (file block -> device LBA)."""

    def __init__(self, ino: int, path: str):
        self.ino = ino
        self.path = path
        self.size = 0
        self.blocks: Dict[int, int] = {}


class _KFile(KObject):
    kind = "file"

    def __init__(self, inode: Inode):
        self.inode = inode
        self.offset = 0


class Vfs:
    """A minimal in-kernel filesystem with a write-back page cache."""

    def __init__(self, kernel: Kernel, nvme: NvmeDevice,
                 lba_start: int = 0, lba_count: Optional[int] = None):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.nvme = nvme
        self.block_size = nvme.block_size
        self.lba_start = lba_start
        self.lba_limit = lba_start + (lba_count if lba_count is not None
                                      else nvme.capacity_blocks - lba_start)
        self._next_lba = lba_start
        self._files: Dict[str, Inode] = {}
        #: numbered by the filesystem, not the process: a second world's
        #: inodes start at 1 again
        self._next_ino = 1
        # page cache: (ino, file-block-index) -> bytearray(block_size)
        self._cache: Dict[Tuple[int, int], bytearray] = {}
        self._dirty: Set[Tuple[int, int]] = set()
        kernel.vfs = self

    # -- namespace ---------------------------------------------------------
    def create(self, path: str) -> Inode:
        if path in self._files:
            raise KernelError("file exists: %s" % path)
        inode = Inode(self._next_ino, path)
        self._next_ino += 1
        self._files[path] = inode
        return inode

    def _alloc_lba(self) -> int:
        if self._next_lba >= self.lba_limit:
            raise KernelError("filesystem full")
        lba = self._next_lba
        self._next_lba += 1
        return lba

    # -- cached block access (sim-coroutines, charged to *core*) -------------
    def _get_block(self, core, inode: Inode, block_index: int) -> Generator:
        key = (inode.ino, block_index)
        cached = self._cache.get(key)
        if cached is not None:
            yield core.busy(self.costs.page_cache_hit_ns)
            self.kernel.counters.page_cache_hits += 1
            return cached
        self.kernel.counters.page_cache_misses += 1
        block = bytearray(self.block_size)
        lba = inode.blocks.get(block_index)
        if lba is not None:
            # Kernel block layer + device time.
            yield core.busy(self.costs.kernel_block_ns)
            data = yield self.nvme.submit_read(lba, 1)
            block[:] = data
        self._cache[key] = block
        return block

    def read(self, core, kfile: _KFile, nbytes: int) -> Generator:
        inode = kfile.inode
        nbytes = min(nbytes, inode.size - kfile.offset)
        if nbytes <= 0:
            return b""
        out = bytearray()
        offset = kfile.offset
        remaining = nbytes
        while remaining > 0:
            block_index, within = divmod(offset, self.block_size)
            take = min(remaining, self.block_size - within)
            block = yield from self._get_block(core, inode, block_index)
            out.extend(block[within:within + take])
            offset += take
            remaining -= take
        kfile.offset = offset
        # Copy page cache -> user buffer.
        yield core.busy(self.costs.copy_ns(nbytes))
        self.kernel.copied(names.BYTES_COPIED_RX, nbytes)
        return bytes(out)

    def write(self, core, kfile: _KFile, data: bytes) -> Generator:
        inode = kfile.inode
        # Copy user buffer -> page cache.
        yield core.busy(self.costs.copy_ns(len(data)))
        self.kernel.copied(names.BYTES_COPIED_TX, len(data))
        offset = kfile.offset
        view = memoryview(data)
        written = 0
        while written < len(data):
            block_index, within = divmod(offset, self.block_size)
            take = min(len(data) - written, self.block_size - within)
            block = yield from self._get_block(core, inode, block_index)
            block[within:within + take] = view[written:written + take]
            self._dirty.add((inode.ino, block_index))
            offset += take
            written += take
        kfile.offset = offset
        inode.size = max(inode.size, offset)
        return written

    def fsync(self, core, kfile: _KFile) -> Generator:
        """Flush this file's dirty blocks and barrier the device."""
        inode = kfile.inode
        dirty = sorted(k for k in self._dirty if k[0] == inode.ino)
        pending = []
        for key in dirty:
            _ino, block_index = key
            lba = inode.blocks.get(block_index)
            if lba is None:
                lba = self._alloc_lba()
                inode.blocks[block_index] = lba
            yield core.busy(self.costs.kernel_block_ns)
            pending.append(self.nvme.submit_write(lba, bytes(self._cache[key])))
            self._dirty.discard(key)
        if pending:
            yield all_of(self.sim, pending)
        yield self.nvme.submit_flush()
        self.kernel.counters.fsyncs += 1
        return len(dirty)


def create_file(kernel: Kernel, path: str) -> _KFile:
    vfs = kernel.vfs
    if vfs is None:
        raise KernelError("no filesystem mounted")
    return _KFile(vfs.create(path))
