"""Library OSes: one per kernel-bypass accelerator class (Figure 2)."""

from .dpdk_libos import DpdkLibOS, ListenQueue, TcpQueue, UdpQueue
from .mtcp_shim import MtcpShim
from .posix_libos import PosixLibOS, PosixListenQueue, PosixTcpQueue
from .rdma_libos import POOL_BUFFER_SIZE, POOL_BUFFERS, RdmaLibOS, RdmaQueue
from .spdk_libos import FileQueue, SpdkLibOS

__all__ = [
    "DpdkLibOS",
    "PosixLibOS",
    "RdmaLibOS",
    "SpdkLibOS",
    "MtcpShim",
]
