"""Log-writer workloads: the storage path comparison (experiment STOR).

The same application - append N records, fsync every *batch* records,
then read them all back - on the two storage stacks:

* :func:`demi_log_writer` - SPDK libOS file queues (user-space NVMe
  submissions + the custom log layout, no syscalls/copies/page cache);
* :func:`posix_log_writer` - the kernel VFS (syscall + copy + page cache
  per write, block layer + interrupts per flush).
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ..kernelos.kernel import Kernel
from ..libos.spdk_libos import SpdkLibOS
from ..sim.trace import LatencyStats

__all__ = ["demi_log_writer", "posix_log_writer"]


def demi_log_writer(libos: SpdkLibOS, records: Sequence[bytes],
                    sync_every: int = 8, path: str = "/log",
                    stats: LatencyStats = None) -> Generator:
    """Append+fsync via file queues; returns (per-batch stats, readback)."""
    stats = stats if stats is not None else LatencyStats("append-batch")
    qd = yield from libos.creat(path)
    batch_start = libos.sim.now
    for i, record in enumerate(records):
        yield from libos.blocking_push(qd, libos.sga_alloc(record))
        if (i + 1) % sync_every == 0:
            yield from libos.fsync(qd)
            stats.add(libos.sim.now - batch_start)
            batch_start = libos.sim.now
    if len(records) % sync_every:
        yield from libos.fsync(qd)
        stats.add(libos.sim.now - batch_start)
    # Read-back verification pass.
    readback: List[bytes] = []
    read_qd = yield from libos.open(path)
    for _ in records:
        result = yield from libos.blocking_pop(read_qd)
        readback.append(result.sga.tobytes())
    return stats, readback


def posix_log_writer(kernel: Kernel, records: Sequence[bytes],
                     sync_every: int = 8, path: str = "/log",
                     stats: LatencyStats = None) -> Generator:
    """The same workload through creat/write/fsync/read syscalls."""
    stats = stats if stats is not None else LatencyStats("append-batch")
    sys = kernel.thread()
    fd = yield from sys.creat(path)
    sizes: List[int] = []
    batch_start = kernel.sim.now
    for i, record in enumerate(records):
        yield from sys.write(fd, record)
        sizes.append(len(record))
        if (i + 1) % sync_every == 0:
            yield from sys.fsync(fd)
            stats.add(kernel.sim.now - batch_start)
            batch_start = kernel.sim.now
    if len(records) % sync_every:
        yield from sys.fsync(fd)
        stats.add(kernel.sim.now - batch_start)
    # Read-back verification pass (records are concatenated in the file).
    yield from sys.lseek(fd, 0)
    readback: List[bytes] = []
    for size in sizes:
        data = yield from sys.read(fd, size)
        readback.append(data)
    return stats, readback
