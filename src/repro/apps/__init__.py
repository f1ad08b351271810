"""Applications: the workloads the paper motivates, on every stack."""

from .cache import CacheStats, LruTtlCache, cache_server
from .echo import (
    demi_echo_client,
    demi_echo_server,
    posix_echo_client,
    posix_echo_server,
)
from .eventloop import EpollWorkerPool, WaitAnyWorkerPool
from .kvstore import (
    KvEngine,
    demi_kv_client,
    kv_workload,
    posix_kv_client,
    posix_kv_server,
)
from .storelog import demi_log_writer, posix_log_writer

__all__ = [
    "LruTtlCache",
    "cache_server",
    "demi_echo_server",
    "demi_echo_client",
    "posix_echo_server",
    "posix_echo_client",
    "EpollWorkerPool",
    "WaitAnyWorkerPool",
    "KvEngine",
    "demi_kv_client",
    "posix_kv_server",
    "posix_kv_client",
    "kv_workload",
    "demi_log_writer",
    "posix_log_writer",
]
