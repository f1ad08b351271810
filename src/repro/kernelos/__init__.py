"""The legacy in-kernel OS baseline (sockets+copies, epoll, VFS)."""

from .kernel import EWOULDBLOCK, Kernel, KernelError, Syscalls
from .reclaim import ReclaimReport, crash_teardown, reclaim_process
from .vfs import Inode, Vfs

__all__ = [
    "Kernel",
    "Syscalls",
    "KernelError",
    "EWOULDBLOCK",
    "Vfs",
    "Inode",
    "ReclaimReport",
    "reclaim_process",
    "crash_teardown",
]
