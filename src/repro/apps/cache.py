"""A memcached-like cache server on the libevent-style event loop.

Section 4.4: "we plan to implement a libevent-based Demikernel OS, which
would enable applications, like memcached, to achieve the benefits of
kernel-bypass transparently."  This is that application shape: a
callback-structured cache server - per-connection request callbacks plus
a periodic expiry timer - running entirely on
:class:`repro.core.eventloop.DemiEventLoop`, so it works unchanged on any
libOS.  There is no cache-specific server class: :func:`cache_server`
builds a :class:`~repro.apps.proto.server.ProtoServer` over an
:class:`LruTtlCache` and registers the sweep timer on its loop.  It
speaks RESP (:class:`repro.apps.proto.resp.RespCodec`, TTLs in ms
through ``SET ... PX``); the same store behind ``MemcachedCodec`` speaks
memcached-binary.

Cache policy lives in :class:`LruTtlCache` - bounded entry count with
LRU eviction; per-entry TTL enforced lazily on access and eagerly by
the timer sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from ..core.api import LibOS
from .proto.resp import RespCodec
from .proto.server import ProtoServer

__all__ = ["LruTtlCache", "cache_server"]

#: cadence of the eager expiry sweep
SWEEP_INTERVAL_NS = 1_000_000  # 1 ms


class CacheStats:
    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.deletes = 0
        self.evictions = 0
        self.expirations = 0


class _Entry:
    __slots__ = ("value", "expires_at")

    def __init__(self, value: bytes, expires_at: Optional[int]):
        self.value = value
        self.expires_at = expires_at  # sim ns, None = no TTL


class LruTtlCache:
    """The cache policy alone: bounded LRU with lazy + swept TTL expiry.

    *clock* is a zero-argument callable returning sim-time in ns (pass
    ``lambda: libos.sim.now``); keeping it injected means the policy has
    no libOS dependency and any protocol frontend can wrap it.
    """

    def __init__(self, clock: Callable[[], int], max_entries: int = 1024):
        self.clock = clock
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()

    def get(self, key: bytes) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expires_at is not None and entry.expires_at <= self.clock():
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)  # LRU touch
        self.stats.hits += 1
        return entry.value

    def set(self, key: bytes, value: bytes, ttl_ms: int = 0) -> None:
        expires = None if ttl_ms == 0 else self.clock() + ttl_ms * 1_000_000
        self._entries[key] = _Entry(value, expires)
        self._entries.move_to_end(key)
        self.stats.sets += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)  # evict the LRU entry
            self.stats.evictions += 1

    def delete(self, key: bytes) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.stats.deletes += 1
            return True
        return False

    def sweep_expired(self) -> None:
        now = self.clock()
        dead = [key for key, entry in self._entries.items()
                if entry.expires_at is not None and entry.expires_at <= now]
        for key in dead:
            del self._entries[key]
            self.stats.expirations += 1


def cache_server(libos: LibOS, port: int = 11211,
                 max_entries: int = 1024) -> ProtoServer:
    """An LRU+TTL cache behind :class:`ProtoServer`, sweep timer armed.

    The cache (and its :class:`CacheStats`) is ``server.service.store``.
    """
    cache = LruTtlCache(lambda: libos.sim.now, max_entries)
    server = ProtoServer(libos, RespCodec, cache, port=port)
    server.loop.add_timer(SWEEP_INTERVAL_NS, cache.sweep_expired)
    return server
