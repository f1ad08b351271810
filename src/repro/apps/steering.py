"""Key partitioning shared by software sharding and NIC steering.

Section 4.3: "[filters] can improve cache utilization by steering I/O to
CPUs based on application-specific parameters (e.g., keys in a key-value
store)."  The sharded KV path, the replica tier, the load generator and
the NIC-resident GET program (:class:`repro.apps.kvstore.KvNicOffload`)
all decide which shard owns a key with :func:`key_partition`.
"""

from __future__ import annotations

from ..hw.nic import rss_hash

__all__ = ["key_partition"]


def key_partition(key: bytes, n_partitions: int) -> int:
    """Which shard owns *key* in a sharded KV store.

    Uses the NIC's RSS hash (:func:`repro.hw.nic.rss_hash`) so software
    partitioning and hardware steering agree by construction: a client
    that wants shard *q* steers its *flow* there (source-port choice),
    and sends only keys with ``key_partition(key, n) == q`` on it.
    """
    return rss_hash(key) % n_partitions if n_partitions > 1 else 0
