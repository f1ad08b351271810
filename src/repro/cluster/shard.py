"""Per-core shards and the sharded KV server built from them.

Each :class:`Shard` owns a full vertical slice: one :class:`~repro.libos.
dpdk_libos.DpdkLibOS` instance pinned to one :class:`~repro.sim.cpu.Core`
and one NIC RX queue, its own qtoken table (it comes with the libOS), and
its own :class:`~repro.apps.kvstore.KvEngine` partition.  The NIC's RSS
function steers each client flow to exactly one queue, so a shard only
ever sees its own connections - the shared-nothing recipe every
kernel-bypass server (seastar, mTCP, Caladan...) uses.

The wake-one claim at N workers (paper section 4.4): each shard serves
through its own :class:`~repro.core.eventloop.DemiEventLoop` - a single
``wait_any_n`` over per-operation qtokens with **no timeout**.  Every
wake-up therefore carries completed operations that belong to this
shard.  The loop counts every wake and classifies the failures the
claim rules out:

* ``shard_wasted_wakeups`` - woke with nothing to do (a timeout);
* ``shard_cross_wakeups`` - woke for an operation some other shard owns.

A correct run ends with both pinned at zero across all shards, which the
scaling bench and the cluster tests assert.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps.kvstore import KvEngine
from ..apps.proto.resp import RespCodec
from ..apps.proto.server import KvEngineStore, ProtoServer
from ..libos.dpdk_libos import DpdkLibOS

__all__ = ["ShardProtoServer", "ShardedKvServer"]


class ShardProtoServer(ProtoServer):
    """One shard's :class:`ProtoServer`: its engine partition as the store.

    Nothing but construction differs from the single-core server - the
    sharded frontend and a lone ``ProtoServer`` answer byte-identically.
    """

    def __init__(self, libos: DpdkLibOS, port: int = 6379,
                 engine: Optional[KvEngine] = None,
                 shard_index: int = 0, n_shards: int = 1,
                 codec_factory=None):
        self.engine = engine or KvEngine(libos.host, name=libos.name + ".kv")
        super().__init__(libos, codec_factory or RespCodec,
                         KvEngineStore(self.engine), port=port,
                         shard_index=shard_index, n_shards=n_shards)


class Shard:
    """One core's worth of server: libOS + engine + event loop."""

    def __init__(self, host, nic, ip: str, index: int, n_shards: int,
                 port: int = 6379, server_cls=None,
                 server_kwargs: Optional[dict] = None):
        self.index = index
        self.n_shards = n_shards
        self.core = host.cpus[index]
        # Shard 0 answers ARP for the shared IP; the rest only learn
        # (otherwise one who-has draws n_shards replies).
        self.libos = DpdkLibOS(
            host, nic, ip,
            name="%s.shard%d" % (host.name, index),
            core=self.core,
            rx_queue=index,
            arp_responder=(index == 0),
        )
        self.engine = KvEngine(host, name="%s.kv%d" % (host.name, index))
        server_cls = server_cls or ShardProtoServer
        self.server = server_cls(self.libos, port=port, engine=self.engine,
                                 shard_index=index, n_shards=n_shards,
                                 **(server_kwargs or {}))
        self.proc = None

    def start(self) -> None:
        self.proc = self.libos.sim.spawn(
            self.server.start(), name="shard%d.server" % self.index)

    def stop(self) -> None:
        self.server.stop()


class ShardedKvServer:
    """N shared-nothing shards behind one NIC, one IP, one port.

    The NIC must have ``n_rx_queues == n_shards`` (and ideally
    ``replicate_non_ip=True`` so every shard's stack sees ARP); the host
    needs at least ``n_shards`` cores.  Keys belong to shards via
    :func:`repro.apps.steering.key_partition`, which uses the same hash
    RSS uses - a client that steers its flow to queue *q* and sends only
    shard-*q* keys never causes cross-shard traffic.
    """

    def __init__(self, host, nic, ip: str, n_shards: int, port: int = 6379,
                 server_cls=None, server_kwargs: Optional[dict] = None):
        if nic.n_rx_queues != n_shards:
            raise ValueError("NIC has %d RX queues for %d shards"
                             % (nic.n_rx_queues, n_shards))
        if len(host.cpus.cores) < n_shards:
            raise ValueError("host has %d cores for %d shards"
                             % (len(host.cpus.cores), n_shards))
        self.host = host
        self.nic = nic
        self.ip = ip
        self.port = port
        self.n_shards = n_shards
        self.shards = [Shard(host, nic, ip, i, n_shards, port=port,
                             server_cls=server_cls,
                             server_kwargs=server_kwargs)
                       for i in range(n_shards)]

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()

    # -- the counters perfbench reads, summed over the shards -------------
    @property
    def wasted_wakeups(self) -> int:
        return sum(s.libos.counters.shard_wasted_wakeups for s in self.shards)

    @property
    def cross_wakeups(self) -> int:
        return sum(s.libos.counters.shard_cross_wakeups for s in self.shards)

    @property
    def misrouted(self) -> int:
        return sum(s.libos.counters.shard_misrouted_requests
                   for s in self.shards)

    @property
    def decode_errors(self) -> int:
        return sum(s.libos.counters.proto_decode_errors for s in self.shards)

    def per_shard_requests(self) -> List[int]:
        return [s.libos.counters.proto_requests for s in self.shards]

    def utilizations(self, elapsed_ns: int) -> List[float]:
        return [s.core.utilization(elapsed_ns) for s in self.shards]

    def qtoken_identity_ok(self) -> bool:
        return all(s.libos.qtokens.identity_ok for s in self.shards)

    def metrics_row(self, elapsed_ns: int) -> dict:
        """One scaling-bench row's worth of server-side accounting.

        Everything the ``kv-scaling`` workload records from the server
        (docs/api.md): request totals, the wake-one counters that must
        stay zero, the qtoken identity, and the batched-fast-path cost
        columns, each read off the shards' libOS scopes.  The workload
        adds the client-side latency numbers on top.
        """
        per_shard = self.per_shard_requests()
        requests = sum(per_shard)
        scopes = [s.libos.counters for s in self.shards]
        wakeups = sum(c.shard_wakeups for c in scopes)
        return {
            "cores": self.n_shards,
            "requests": requests,
            "elapsed_ns": elapsed_ns,
            "throughput_ops_per_s": (requests / (elapsed_ns / 1e9)
                                     if elapsed_ns else 0.0),
            "per_shard_requests": per_shard,
            "per_core_utilization": [round(u, 4) for u in
                                     self.utilizations(elapsed_ns)],
            "wakeups": wakeups,
            "wasted_wakeups": self.wasted_wakeups,
            "cross_shard_wakeups": self.cross_wakeups,
            "misrouted_requests": self.misrouted,
            "wait_timeouts": sum(c.wait_timeouts for c in scopes),
            "qtoken_identity_ok": self.qtoken_identity_ok(),
            # -- batched fast-path accounting ----------------------------
            "per_op_server_cpu_ns": round(
                sum(s.core.busy_ns for s in self.shards) / max(1, requests),
                1),
            "doorbells": sum(c.doorbells for c in scopes),
            "doorbells_saved": sum(c.doorbells_saved for c in scopes),
            "requests_per_wakeup": round(requests / max(1, wakeups), 3),
        }
