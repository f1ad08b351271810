"""Simulated kernel-bypass hardware (NICs, NVMe, IOMMU, offload engines)."""

from .device import Device
from .iommu import Iommu, IommuFault
from .nic import DpdkNic, HwCq, HwQp, KernelNic, QpError, RdmaNic, RdmaPacket
from .nvme import NvmeDevice, NvmeError
from .offload import ALL_OFFLOADS, OffloadEngine

__all__ = [
    "Device",
    "Iommu",
    "IommuFault",
    "DpdkNic",
    "KernelNic",
    "RdmaNic",
    "HwQp",
    "HwCq",
    "QpError",
    "NvmeDevice",
    "OffloadEngine",
]
