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

__all__ = ["Shard", "ShardProtoServer", "ShardedKvServer"]


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

    # -- aggregates ------------------------------------------------------
    @property
    def requests_served(self) -> int:
        return sum(s.server.requests_served for s in self.shards)

    @property
    def wakeups(self) -> int:
        return sum(s.server.loop.wakeups for s in self.shards)

    @property
    def wasted_wakeups(self) -> int:
        return sum(s.server.loop.wasted_wakeups for s in self.shards)

    @property
    def cross_wakeups(self) -> int:
        return sum(s.server.loop.cross_wakeups for s in self.shards)

    @property
    def misrouted(self) -> int:
        return sum(s.server.misrouted for s in self.shards)

    @property
    def decode_errors(self) -> int:
        return sum(s.server.decode_errors for s in self.shards)

    def per_shard_requests(self) -> List[int]:
        return [s.server.requests_served for s in self.shards]

    def utilizations(self, elapsed_ns: int) -> List[float]:
        return [s.core.utilization(elapsed_ns) for s in self.shards]

    def qtoken_identity_ok(self) -> bool:
        return all(s.libos.qtokens.identity_ok for s in self.shards)

    def metrics_row(self, elapsed_ns: int, tracer) -> dict:
        """One scaling-bench row's worth of server-side accounting.

        Everything the ``kv-scaling`` workload records from the server
        (docs/api.md): request totals, the wake-one counters that must
        stay zero, the qtoken identity, and the batched-fast-path cost
        columns.  The workload adds the client-side latency numbers on
        top.
        """
        requests = self.requests_served
        wait_timeouts = doorbells = doorbells_saved = 0
        server_busy_ns = 0
        for shard in self.shards:
            scope = shard.libos.name
            wait_timeouts += tracer.get("%s.wait_timeouts" % scope) or 0
            doorbells += tracer.get("%s.doorbells" % scope) or 0
            doorbells_saved += tracer.get("%s.doorbells_saved" % scope) or 0
            server_busy_ns += shard.core.busy_ns
        return {
            "cores": self.n_shards,
            "requests": requests,
            "elapsed_ns": elapsed_ns,
            "throughput_ops_per_s": (requests / (elapsed_ns / 1e9)
                                     if elapsed_ns else 0.0),
            "per_shard_requests": self.per_shard_requests(),
            "per_core_utilization": [round(u, 4) for u in
                                     self.utilizations(elapsed_ns)],
            "wakeups": self.wakeups,
            "wasted_wakeups": self.wasted_wakeups,
            "cross_shard_wakeups": self.cross_wakeups,
            "misrouted_requests": self.misrouted,
            "wait_timeouts": wait_timeouts,
            "qtoken_identity_ok": self.qtoken_identity_ok(),
            # -- batched fast-path accounting ----------------------------
            "per_op_server_cpu_ns": round(server_busy_ns / max(1, requests),
                                          1),
            "doorbells": doorbells,
            "doorbells_saved": doorbells_saved,
            "requests_per_wakeup": round(requests / max(1, self.wakeups), 3),
        }
