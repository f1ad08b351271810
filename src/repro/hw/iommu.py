"""The IOMMU: device-side address translation.

Kernel-bypass devices can only DMA to memory the OS has mapped for them.
The paper's section 4.5 builds on exactly this constraint: applications
today must *explicitly* register buffers; the Demikernel memory manager
instead registers whole heap regions transparently.

Our model keeps a set of mapped ``[base, base+size)`` ranges per device.
:meth:`translate` either succeeds (the DMA proceeds) or raises
:class:`IommuFault` (a real device would raise a PCIe error / poison the
transaction - applications see failed work requests).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim.trace import Tracer

__all__ = ["Iommu", "IommuFault"]


class IommuFault(Exception):
    """DMA attempted to an unmapped (unregistered) address range.

    Carries the owning device's name so a fault raised deep inside a
    teardown/reclaim path identifies *which* translation table was
    stale instead of failing anonymously.
    """

    def __init__(self, addr: int, size: int, device: str = "?"):
        super().__init__("DMA fault on %s: [%#x, %#x) not mapped"
                         % (device, addr, addr + size))
        self.addr = addr
        self.size = size
        self.device = device


class Iommu:
    """Per-device translation table of registered ranges."""

    def __init__(self, tracer: Tracer, name: str = "iommu"):
        self.tracer = tracer
        self.name = name
        self.counters = tracer.scope(name)
        self._maps: Dict[int, Tuple[int, int]] = {}
        self._next_handle = 1

    def map(self, base: int, size: int) -> int:
        """Register ``[base, base+size)``; returns an unmap handle."""
        if size <= 0:
            raise ValueError("cannot map empty range")
        handle = self._next_handle
        self._next_handle += 1
        self._maps[handle] = (base, size)
        self.counters.maps += 1
        return handle

    def unmap(self, handle: int) -> None:
        if handle not in self._maps:
            raise KeyError("unknown IOMMU mapping handle %r" % handle)
        del self._maps[handle]
        self.counters.unmaps += 1

    def covers(self, addr: int, size: int) -> bool:
        """True if the whole range falls inside one mapped region."""
        for base, length in self._maps.values():
            if base <= addr and addr + size <= base + length:
                return True
        return False

    def translate(self, addr: int, size: int) -> None:
        """Validate a DMA target; raises :class:`IommuFault` if unmapped."""
        if not self.covers(addr, size):
            self.counters.faults += 1
            raise IommuFault(addr, size, device=self.name)
        self.counters.translations += 1

    @property
    def mapped_ranges(self) -> int:
        return len(self._maps)
