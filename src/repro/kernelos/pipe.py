"""Kernel pipes: the classic POSIX byte-stream IPC.

Pipes are the paper's canonical example of the stream abstraction
(section 4.2): no message boundaries, copies on both ends, and readers
that can wake to find only part of what they need.  They exist here both
for baseline completeness and for the C3 stream-vs-queue benchmark's
intra-host variant.
"""

from __future__ import annotations

from typing import Generator

from ..sim.sync import WaitQueue
from .kernel import Kernel, KernelError, KObject
from ..telemetry import names

__all__ = ["KernelPipe", "PIPE_CAPACITY"]

PIPE_CAPACITY = 65536


class _PipeReadEnd(KObject):
    kind = "pipe_r"

    def __init__(self, pipe: "KernelPipe"):
        self.pipe = pipe

    def release(self, kernel: Kernel) -> None:
        self.pipe.close_read()


class _PipeWriteEnd(KObject):
    kind = "pipe_w"

    def __init__(self, pipe: "KernelPipe"):
        self.pipe = pipe

    def release(self, kernel: Kernel) -> None:
        self.pipe.close_write()


class KernelPipe:
    """Bounded in-kernel byte buffer with blocking reader/writer."""

    def __init__(self, kernel: Kernel, capacity: int = PIPE_CAPACITY):
        self.kernel = kernel
        self.sim = kernel.sim
        self.capacity = capacity
        self._buffer = bytearray()
        self.read_wq = WaitQueue(self.sim, "pipe.read")
        self.write_wq = WaitQueue(self.sim, "pipe.write")
        self.read_closed = False
        self.write_closed = False

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def write(self, syscalls, data: bytes) -> Generator:
        """Copying, blocking write (sim-coroutine charged to the caller)."""
        if self.read_closed:
            raise KernelError("broken pipe")
        costs = self.kernel.costs
        written = 0
        view = memoryview(data)
        while written < len(data):
            room = self.capacity - len(self._buffer)
            if room == 0:
                yield syscalls._block(self.write_wq.wait())
                yield syscalls._wakeup_charge()
                if self.read_closed:
                    raise KernelError("broken pipe")
                continue
            take = min(room, len(data) - written)
            yield syscalls.core.busy(costs.copy_ns(take))
            self.kernel.copied(names.BYTES_COPIED_TX, take)
            self._buffer.extend(view[written:written + take])
            written += take
            self.read_wq.pulse()
        return written

    def read(self, syscalls, nbytes: int) -> Generator:
        """Copying, blocking read; b'' on writer close + drained buffer."""
        costs = self.kernel.costs
        while not self._buffer:
            if self.write_closed:
                return b""
            yield syscalls._block(self.read_wq.wait())
            yield syscalls._wakeup_charge()
        take = min(nbytes, len(self._buffer))
        yield syscalls.core.busy(costs.copy_ns(take))
        self.kernel.copied(names.BYTES_COPIED_RX, take)
        data = bytes(self._buffer[:take])
        del self._buffer[:take]
        self.write_wq.pulse()
        return data

    def close_read(self) -> None:
        self.read_closed = True
        self.write_wq.pulse()

    def close_write(self) -> None:
        self.write_closed = True
        self.read_wq.pulse()


def make_pipe_ends(pipe: KernelPipe):
    """The (read-end, write-end) fd objects for a pipe."""
    return _PipeReadEnd(pipe), _PipeWriteEnd(pipe)
