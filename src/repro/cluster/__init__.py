"""Shared-nothing multi-core serving and the replicated multi-host tier.

One :class:`Shard` per core: its own event loop, qtoken table, KV
partition, and NIC RX queue.  RSS steers each client flow to exactly one
shard's queue; clients pick source ports so their flow lands on the
shard that owns their keys (:mod:`repro.cluster.client`).  Nothing is
shared across shards - no locks, no cross-core wake-ups - which is what
lets the section-4.4 wake-one property be checked at N workers instead
of one.

Across hosts the same partition function places keys on *chains*
(:mod:`repro.cluster.replica`): chain replication over one-sided RDMA,
with crash failover, log replay, and a retrying client router
(:class:`~repro.cluster.client.ReplicatedKvClient`).
"""

from .client import ReplicatedKvClient, shard_workload, src_port_for_queue
from .replica import (DEFAULT_KV_PORT, STATUS_MOVED, ClusterDirectory,
                      ReplicaNode, decode_entry, encode_entry)
from .shard import Shard, ShardProtoServer, ShardedKvServer

__all__ = [
    "ShardProtoServer",
    "ShardedKvServer",
    "ClusterDirectory",
    "ReplicaNode",
    "ReplicatedKvClient",
    "STATUS_MOVED",
    "DEFAULT_KV_PORT",
    "shard_workload",
    "src_port_for_queue",
]
