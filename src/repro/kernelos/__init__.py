"""The legacy in-kernel OS baseline (sockets+copies, epoll, VFS)."""

from .kernel import EWOULDBLOCK, Kernel, KernelError, Syscalls
from .reclaim import crash_teardown, reclaim_process
from .vfs import Inode, Vfs

__all__ = [
    "Kernel",
    "Syscalls",
    "KernelError",
    "EWOULDBLOCK",
    "Vfs",
    "crash_teardown",
]
