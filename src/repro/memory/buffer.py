"""I/O buffers with free-protection reference counts.

A :class:`Buffer` is a contiguous range of simulated host memory: it has a
fake virtual address (used by IOMMU checks and one-sided RDMA), a backing
``bytearray`` holding real payload bytes, and a device reference count.

Free-protection (paper section 4.5): while a device holds a reference
(DMA in flight), ``free()`` only *marks* the buffer; the memory manager
defers the actual deallocation until the last device reference drops.
Without this, the application would either corrupt in-flight DMA or have
to coordinate with the device itself.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Buffer", "BufferError"]


class BufferError(Exception):
    """Illegal buffer access (use after free, out-of-range I/O...)."""


class Buffer:
    """A registered-memory I/O buffer."""

    __slots__ = ("addr", "capacity", "data", "region", "_device_refs",
                 "freed", "deallocated", "_on_last_release", "written")

    def __init__(self, addr: int, capacity: int, region: Optional[object] = None):
        if capacity <= 0:
            raise BufferError("buffer capacity must be positive")
        self.addr = addr
        self.capacity = capacity
        self.data = bytearray(capacity)
        self.region = region
        self._device_refs = 0
        self.freed = False        # application called free()
        self.deallocated = False  # memory actually returned
        self._on_last_release = None
        #: the wait queue a *device* write into this buffer pulses, made
        #: by :meth:`MemoryManager.watch` for a poll-mode reader; a CPU
        #: store through :meth:`write` is the reader's own and pulses
        #: nothing
        self.written = None

    # -- data access ----------------------------------------------------
    def _check_live(self) -> None:
        if self.deallocated:
            raise BufferError("use of deallocated buffer @%#x" % self.addr)

    def write(self, offset: int, payload: bytes) -> None:
        self._check_live()
        if offset < 0 or offset + len(payload) > self.capacity:
            raise BufferError(
                "write [%d, %d) outside buffer of %d bytes"
                % (offset, offset + len(payload), self.capacity)
            )
        self.data[offset:offset + len(payload)] = payload

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> bytes:
        self._check_live()
        if nbytes is None:
            nbytes = self.capacity - offset
        if offset < 0 or offset + nbytes > self.capacity:
            raise BufferError(
                "read [%d, %d) outside buffer of %d bytes"
                % (offset, offset + nbytes, self.capacity)
            )
        return bytes(self.data[offset:offset + nbytes])

    def fill(self, payload: bytes) -> "Buffer":
        """Convenience: write *payload* at offset 0 and return self."""
        self.write(0, payload)
        return self

    # -- device reference counting -----------------------------------------
    @property
    def in_use_by_device(self) -> bool:
        return self._device_refs > 0

    def hold(self) -> "Buffer":
        """A device takes a reference for the duration of a DMA."""
        self._check_live()
        self._device_refs += 1
        return self

    def release(self) -> None:
        """A device drops its reference; may fire the deferred-free hook."""
        if self._device_refs <= 0:
            raise BufferError("release() without hold() on buffer @%#x" % self.addr)
        self._device_refs -= 1
        if self._device_refs == 0 and self._on_last_release is not None:
            hook, self._on_last_release = self._on_last_release, None
            hook(self)

    def on_last_release(self, hook) -> None:
        """Install the deferred-free hook (memory-manager internal)."""
        if self._device_refs == 0:
            hook(self)
        else:
            self._on_last_release = hook

    def __repr__(self) -> str:  # pragma: no cover
        state = "dealloc" if self.deallocated else ("freed" if self.freed else "live")
        return "<Buffer @%#x cap=%d refs=%d %s>" % (
            self.addr, self.capacity, self._device_refs, state)
