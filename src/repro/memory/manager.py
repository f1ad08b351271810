"""The Demikernel memory manager (paper section 4.5).

Two jobs distinguish it from an ordinary allocator:

1. **Transparent registration.**  Instead of applications registering each
   I/O buffer with each device (today's RDMA model), the manager carves
   its heap out of large *regions* and registers every region with every
   attached kernel-bypass device when the region is created.  All
   application memory is I/O-ready; registration cost is amortized from
   O(buffers) to O(regions).

2. **Free-protection.**  ``free()`` on a buffer a device is still DMA-ing
   defers deallocation until the device drops its reference, turning a
   use-after-free-by-DMA bug into a harmless deferred free.  The same
   holds for a *lent* slice (:meth:`MemoryManager.lend`): memory its
   owner handed the application without a copy - a popped record in the
   log's read span - keeps the buffer alive until ``give_back``.

The manager also exposes ``read_mem``/``write_mem`` hooks so RDMA NICs can
serve one-sided operations against registered memory, and an *explicit*
mode that reproduces the legacy per-buffer-registration cost for the C7
benchmark.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Tuple

from ..hw.iommu import IommuFault
from ..sim.sync import WaitQueue
from .buffer import Buffer, BufferError
from ..telemetry import names

__all__ = ["MemoryManager", "Region"]

#: Regions start at a high fake virtual address so 0/low addresses are
#: obviously invalid in tests.
_HEAP_BASE = 0x7F00_0000_0000
#: a region is one huge page; larger only for one larger allocation
REGION_SIZE = 2 * 1024 * 1024
#: allocations are cache-line aligned
ALIGN = 64


class Region:
    """One large registered arena that buffers are carved from."""

    __slots__ = ("base", "size", "used", "live_buffers", "handles")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self.used = 0
        self.live_buffers = 0
        #: device name -> iommu handle
        self.handles: Dict[str, int] = {}


class MemoryManager:
    """Region-based allocator with transparent device registration."""

    def __init__(self, host):
        self.host = host
        self.costs = host.costs
        self.tracer = host.tracer
        self.counters = host.tracer.scope(names.MM)
        self.transparent = True  # cleared: C7's per-buffer registration
        self.regions: List[Region] = []
        self.devices: List[Any] = []
        self._next_base = _HEAP_BASE
        # addr-indexed live buffers for one-sided access resolution
        self._buffer_addrs: List[int] = []
        self._buffers: Dict[int, Buffer] = {}
        # explicit per-buffer registrations: addr -> [(device, handle)]
        self._buffer_handles: Dict[int, List[Tuple[Any, int]]] = {}
        # segments lent out and not yet given back, by identity
        self._lent: Dict[int, Any] = {}
        self.live_bytes = 0
        host.mm = self

    # -- device attachment -------------------------------------------------
    def attach_device(self, device: Any) -> None:
        """Attach a kernel-bypass device (anything with an ``.iommu``).

        In transparent mode every existing and future region is registered
        with it; the device also gets one-sided memory hooks.
        """
        self.devices.append(device)
        if hasattr(device, "mem"):
            device.mem = self
        if self.transparent:
            for region in self.regions:
                self._register_region(region, device)

    def _register_region(self, region: Region, device: Any) -> None:
        handle = device.iommu.map(region.base, region.size)
        region.handles[device.name] = handle
        self.host.cpu.charge_async(self.costs.registration_ns(region.size))
        self.counters.region_registrations += 1

    # -- allocation ---------------------------------------------------------
    def _new_region(self, at_least: int) -> Region:
        size = max(REGION_SIZE, at_least)
        region = Region(self._next_base, size)
        self._next_base += size + 4096  # guard gap
        self.regions.append(region)
        self.counters.regions_created += 1
        if self.transparent:
            for device in self.devices:
                self._register_region(region, device)
        return region

    def alloc(self, nbytes: int) -> Buffer:
        """Allocate an I/O buffer (registered already in transparent mode)."""
        if nbytes <= 0:
            raise BufferError("allocation size must be positive")
        padded = (nbytes + ALIGN - 1) // ALIGN * ALIGN
        region = None
        for r in self.regions:
            if r.size - r.used >= padded:
                region = r
                break
        if region is None:
            region = self._new_region(padded)
        addr = region.base + region.used
        region.used += padded
        region.live_buffers += 1
        buf = Buffer(addr, nbytes, region)
        bisect.insort(self._buffer_addrs, addr)
        self._buffers[addr] = buf
        self.live_bytes += nbytes
        self.host.cpu.charge_async(self.costs.malloc_ns)
        self.counters.allocs += 1
        return buf

    def register_buffer(self, buf: Buffer, device: Any) -> None:
        """Explicit per-buffer registration (legacy mode / C7 baseline).

        The handle is remembered so deallocation (and crash teardown)
        unmaps it - an explicitly registered buffer must not leave a
        stale IOMMU range behind once it is gone.
        """
        handle = device.iommu.map(buf.addr, buf.capacity)
        self._buffer_handles.setdefault(buf.addr, []).append((device, handle))
        self.host.cpu.charge_async(
            self.costs.registration_ns(buf.capacity, per_buffer=True)
        )
        self.counters.buffer_registrations += 1

    def free(self, buf: Buffer) -> None:
        """Free a buffer; deferred if a device still references it."""
        if buf.freed:
            raise BufferError("double free of buffer @%#x" % buf.addr)
        buf.freed = True
        self.host.cpu.charge_async(self.costs.free_ns)
        self.counters.frees += 1
        if buf.in_use:
            # Free-protection: the unprotected path would have reused this
            # memory under an active DMA or a lent slice.
            self.counters.deferred_frees += 1
            buf.on_last_release(self._deallocate)
        else:
            self._deallocate(buf)

    def lend(self, segment):
        """Lend *segment* (an ``SgaSegment`` with ``lent`` set) of a buffer
        someone else owns: it holds one reference on the buffer until
        :meth:`give_back`, so its owner may free the buffer meanwhile."""
        segment.buf.hold()
        self._lent[id(segment)] = segment
        return segment

    def give_back(self, segment) -> None:
        """Return a lent segment: drop its reference, charging
        ``free_ns`` like a free.  Its buffer goes once its owner freed it
        and nothing else holds it."""
        if self._lent.pop(id(segment), None) is not segment:
            raise BufferError("double free of a lent slice of buffer @%#x"
                              % segment.buf.addr)
        self.host.cpu.charge_async(self.costs.free_ns)
        self.counters.lent_returns += 1
        segment.buf.release()

    def _deallocate(self, buf: Buffer) -> None:
        if buf.deallocated:
            return
        buf.deallocated = True
        for device, handle in self._buffer_handles.pop(buf.addr, ()):
            device.iommu.unmap(handle)
        region = buf.region
        if region is not None:
            region.live_buffers -= 1
            if region.live_buffers == 0:
                region.used = 0  # arena-style reclamation
        idx = bisect.bisect_left(self._buffer_addrs, buf.addr)
        if idx < len(self._buffer_addrs) and self._buffer_addrs[idx] == buf.addr:
            self._buffer_addrs.pop(idx)
        self._buffers.pop(buf.addr, None)
        self.live_bytes -= buf.capacity
        self.counters.deallocations += 1

    # -- resolution (one-sided RDMA, device access) --------------------------
    def resolve(self, addr: int, nbytes: int) -> Tuple[Buffer, int]:
        """Find the live buffer covering ``[addr, addr+nbytes)``."""
        idx = bisect.bisect_right(self._buffer_addrs, addr) - 1
        if idx >= 0:
            base = self._buffer_addrs[idx]
            buf = self._buffers[base]
            if addr + nbytes <= base + buf.capacity:
                return buf, addr - base
        self.counters.faults += 1
        raise IommuFault(addr, nbytes, device="%s.mm" % self.host.name)

    def read_mem(self, addr: int, nbytes: int) -> bytes:
        buf, offset = self.resolve(addr, nbytes)
        return buf.read(offset, nbytes)

    def write_mem(self, addr: int, data: bytes) -> None:
        """A device writes host memory (a one-sided RDMA WRITE landing).

        It raises no completion anywhere, so a poll-mode reader of that
        memory parks on :meth:`watch` and is woken here, once the bytes
        are in place - never before, or it would read the old ones.
        """
        buf, offset = self.resolve(addr, len(data))
        buf.write(offset, data)
        if buf.written is not None:
            buf.written.pulse()

    def watch(self, buf: Buffer) -> WaitQueue:
        """The queue every device write into *buf* pulses.

        How the simulator models a core spinning on its own cache line:
        like ``nic.rx_signal`` and ``HwCq.signal`` the reader sees the
        data when the device lands it, not at a poll tick.  The queue
        lives on the buffer and goes when the buffer does.
        """
        if buf.written is None:
            buf.written = WaitQueue(self.host.sim, "mm.watch@%#x" % buf.addr)
        return buf.written

    # -- teardown / reclamation ----------------------------------------------
    def free_all(self) -> int:
        """Crash teardown: give back every slice the dead process was lent
        and free every still-live buffer it left behind.  Buffers a device
        is mid-DMA on get the normal free-protection (deallocation defers
        to the last reference drop); already-freed-but-deferred buffers
        are left to resolve on their own.  Returns the number of buffers
        newly freed."""
        for segment in list(self._lent.values()):
            self.give_back(segment)
        freed = 0
        for buf in list(self._buffers.values()):
            if not buf.freed:
                self.free(buf)
                freed += 1
        return freed

    def reclaim_regions(self) -> int:
        """Release every empty region: unmap it from each attached
        device's IOMMU and return the arena to the (simulated) OS.

        Only regions with no live buffers are touched, so this is safe
        to call while deferred frees are still pending; call it again
        once they resolve.  Returns the number of regions released.
        """
        kept: List[Region] = []
        released = 0
        for region in self.regions:
            if region.live_buffers == 0:
                for device in self.devices:
                    handle = region.handles.pop(device.name, None)
                    if handle is not None:
                        device.iommu.unmap(handle)
                released += 1
                self.counters.regions_reclaimed += 1
            else:
                kept.append(region)
        self.regions = kept
        return released

    # -- stats ----------------------------------------------------------------
    @property
    def live_buffer_count(self) -> int:
        return len(self._buffers)

    def registered_bytes(self) -> int:
        return sum(r.size for r in self.regions) if self.transparent else 0
