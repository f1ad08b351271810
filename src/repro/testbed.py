"""Testbed builders: assembled simulated clusters for experiments.

Everything here is composition - hosts, NICs, kernels, libOSes wired to
one fabric - so tests, examples, and benchmarks build identical worlds
from one place: a :class:`World` and one maker per stack (kernel pair,
DPDK / POSIX / RDMA libOS pairs, the sharded KV world, the SPDK host,
the remote-memory ring and the mTCP pair).
"""

from __future__ import annotations

from typing import Optional

from .hw.nic import DpdkNic, RdmaNic
from .hw.nvme import NvmeDevice
from .hw.offload import OffloadEngine
from .memory.manager import MemoryManager
from .sim.costs import CostModel, DEFAULT_COSTS
from .sim.engine import Simulator
from .sim.fabric import Fabric
from .sim.host import Host
from .sim.rand import Rng
from .sim.trace import Tracer

__all__ = [
    "World",
    "make_kernel_pair",
    "make_dpdk_libos_pair",
    "make_sharded_kv_world",
    "make_posix_libos_pair",
    "make_rdma_libos_pair",
    "make_spdk_libos",
    "make_rmem_world",
    "make_mtcp_pair",
]


class World:
    """A simulator + fabric + a set of hosts."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS, drop_rate: float = 0.0,
                 seed: int = 42, telemetry: bool = False):
        self.sim = Simulator()
        self.costs = costs
        self.tracer = Tracer()
        # The one switch: with it the tracer also records spans, gauges
        # and distributions (none of which enters its signature).
        self.tracer.tracing = bool(telemetry)
        self.fabric = Fabric(self.sim, costs, tracer=self.tracer,
                             rng=Rng(seed), drop_rate=drop_rate)
        self.hosts = {}
        self.injector = None  # set by install_faults

    def install_faults(self, plan):
        """Attach a fault plan: fabric hook + device views on every host.

        Call after all hosts/NICs are built so device matching sees them.
        Returns the :class:`repro.sim.faults.FaultInjector`.
        """
        from .sim.faults import FaultInjector

        self.injector = FaultInjector(plan, tracer=self.tracer)
        return self.injector.install(self)

    def add_host(self, name: str, cores: int = 4) -> Host:
        host = Host(self.sim, name, self.costs, cores=cores,
                    tracer=self.tracer)
        MemoryManager(host)
        self.hosts[name] = host
        return host

    def add_dpdk(self, host: Host, mac: Optional[str] = None,
                 n_rx_queues: int = 1,
                 replicate_non_ip: bool = False) -> DpdkNic:
        nic = DpdkNic(host, self.fabric, mac or ("%s-dpdk" % host.name),
                      name="%s.dpdk0" % host.name, n_rx_queues=n_rx_queues,
                      replicate_non_ip=replicate_non_ip)
        host.nics.append(nic)
        host.mm.attach_device(nic)
        return nic

    def add_rdma(self, host: Host, addr: Optional[str] = None) -> RdmaNic:
        nic = RdmaNic(host, self.fabric, addr or ("%s-rdma" % host.name),
                      name="%s.rdma0" % host.name)
        host.nics.append(nic)
        host.mm.attach_device(nic)
        return nic

    def add_nvme(self, host: Host, **kw) -> NvmeDevice:
        nvme = NvmeDevice(host, name="%s.nvme0" % host.name, **kw)
        host.nvme = nvme
        return nvme

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until)


def make_kernel_pair(drop_rate: float = 0.0, seed: int = 42, cores: int = 4,
                     costs: CostModel = DEFAULT_COSTS,
                     verify_checksums: bool = False, telemetry=False):
    """Two hosts running the legacy kernel: (world, client, server)."""
    from .kernelos.kernel import Kernel

    w = World(costs=costs, drop_rate=drop_rate, seed=seed,
              telemetry=telemetry)
    a = w.add_host("client", cores=cores)
    b = w.add_host("server", cores=cores)
    ka = Kernel(a, w.fabric, "02:00:00:00:01:01", "10.0.0.1",
                verify_checksums=verify_checksums)
    kb = Kernel(b, w.fabric, "02:00:00:00:01:02", "10.0.0.2",
                verify_checksums=verify_checksums)
    return w, ka, kb


def make_dpdk_libos_pair(drop_rate: float = 0.0, seed: int = 42,
                         with_offload: bool = False,
                         costs: CostModel = DEFAULT_COSTS,
                         verify_checksums: bool = False, telemetry=False):
    """Two hosts with DPDK libOSes: (world, client libOS, server libOS)."""
    from .libos.dpdk_libos import DpdkLibOS

    w = World(costs=costs, drop_rate=drop_rate, seed=seed,
              telemetry=telemetry)
    liboses = []
    for i, (name, ip) in enumerate((("client", "10.0.0.1"),
                                    ("server", "10.0.0.2"))):
        host = w.add_host(name)
        nic = w.add_dpdk(host, mac="02:00:00:00:10:%02x" % (i + 1))
        if with_offload:
            OffloadEngine(host, name="%s.offload" % name).attach(nic)
        liboses.append(DpdkLibOS(host, nic, ip, name="%s.catnip" % name,
                                 verify_checksums=verify_checksums))
    return w, liboses[0], liboses[1]


def make_sharded_kv_world(n_shards: int, drop_rate: float = 0.0,
                          seed: int = 42, costs: CostModel = DEFAULT_COSTS,
                          port: int = 6379, telemetry=False,
                          server_cls=None, server_kwargs=None):
    """A server sharded across *n_shards* cores plus one client per shard.

    The server host gets ``max(4, n_shards)`` cores and a DPDK NIC with
    one RSS RX queue per shard (non-IP frames - ARP - replicated to
    every queue so each per-core stack learns peer MACs).  Client *i* is
    its own host/libOS at ``10.0.0.(i+1)``; the server answers at
    ``10.0.0.100``.  Returns ``(world, ShardedKvServer, [client
    liboses])`` - the server is built but not started.
    """
    from .cluster.shard import ShardedKvServer
    from .libos.dpdk_libos import DpdkLibOS

    w = World(costs=costs, drop_rate=drop_rate, seed=seed,
              telemetry=telemetry)
    server_host = w.add_host("server", cores=max(4, n_shards))
    server_nic = w.add_dpdk(server_host, mac="02:00:00:00:30:64",
                            n_rx_queues=n_shards,
                            replicate_non_ip=(n_shards > 1))
    server = ShardedKvServer(server_host, server_nic, "10.0.0.100",
                             n_shards, port=port, server_cls=server_cls,
                             server_kwargs=server_kwargs)
    clients = []
    for i in range(n_shards):
        host = w.add_host("client%d" % i)
        nic = w.add_dpdk(host, mac="02:00:00:00:30:%02x" % (i + 1))
        clients.append(DpdkLibOS(host, nic, "10.0.0.%d" % (i + 1),
                                 name="client%d.catnip" % i))
    return w, server, clients


def make_posix_libos_pair(drop_rate: float = 0.0, seed: int = 42,
                          costs: CostModel = DEFAULT_COSTS,
                          verify_checksums: bool = False, telemetry=False):
    """Two hosts with POSIX libOSes over legacy kernels."""
    from .libos.posix_libos import PosixLibOS

    w, ka, kb = make_kernel_pair(drop_rate=drop_rate, seed=seed, costs=costs,
                                 verify_checksums=verify_checksums,
                                 telemetry=telemetry)
    la = PosixLibOS(ka.host, ka, name="client.catnap")
    lb = PosixLibOS(kb.host, kb, name="server.catnap")
    return w, la, lb


def make_rdma_libos_pair(drop_rate: float = 0.0, seed: int = 42,
                         costs: CostModel = DEFAULT_COSTS, telemetry=False):
    """Two hosts with RDMA libOSes over verbs + a shared CM."""
    from .libos.rdma_libos import RdmaLibOS
    from .rdma.cm import RdmaCm

    w = World(costs=costs, drop_rate=drop_rate, seed=seed,
              telemetry=telemetry)
    cm = RdmaCm(w.sim)
    liboses = []
    for name in ("client", "server"):
        host = w.add_host(name)
        nic = w.add_rdma(host)
        liboses.append(RdmaLibOS(host, nic, cm, name="%s.catmint" % name))
    return w, liboses[0], liboses[1]


def make_spdk_libos(seed: int = 42, costs: CostModel = DEFAULT_COSTS,
                    telemetry=False):
    """One host with an NVMe device and an SPDK libOS: (world, libOS)."""
    from .libos.spdk_libos import SpdkLibOS

    w = World(costs=costs, seed=seed, telemetry=telemetry)
    host = w.add_host("h")
    nvme = w.add_nvme(host)
    libos = SpdkLibOS(host, nvme, name="h.catfish")
    return w, libos


def make_rmem_world(slot_size: int = 4096, n_slots: int = 16,
                    seed: int = 42, costs: CostModel = DEFAULT_COSTS):
    """Producer + consumer + passive memory node, ring in the node's arena.

    Returns (world, producer RingProducer, consumer RingConsumer,
    memnode Host).
    """
    from .rdma.verbs import ProtectionDomain, QueuePair
    from .rmem.ring import RemoteRing, RingConsumer, RingProducer

    w = World(costs=costs, seed=seed)
    hosts = {name: w.add_host(name) for name in ("producer", "consumer",
                                                 "memnode")}
    nics = {name: w.add_rdma(host) for name, host in hosts.items()}

    def connect(a, b):
        qp_a = QueuePair(ProtectionDomain(nics[a]))
        qp_b = QueuePair(ProtectionDomain(nics[b]))
        qp_a.connect(nics[b].addr, qp_b.hw.qpn)
        qp_b.connect(nics[a].addr, qp_a.hw.qpn)
        return qp_a

    ring = RemoteRing.allocate(hosts["memnode"].mm, slot_size, n_slots)
    producer = RingProducer(connect("producer", "memnode"), ring)
    consumer = RingConsumer(connect("consumer", "memnode"), ring)
    return w, producer, consumer, hosts["memnode"]


def make_mtcp_pair(drop_rate: float = 0.0, seed: int = 42,
                   costs: CostModel = DEFAULT_COSTS, telemetry=False):
    """Two hosts with mTCP-style shims: (world, client shim, server shim)."""
    from .libos.mtcp_shim import MtcpShim

    w = World(costs=costs, drop_rate=drop_rate, seed=seed,
              telemetry=telemetry)
    shims = []
    for i, (name, ip) in enumerate((("client", "10.0.0.1"),
                                    ("server", "10.0.0.2"))):
        host = w.add_host(name)
        nic = w.add_dpdk(host, mac="02:00:00:00:20:%02x" % (i + 1))
        shims.append(MtcpShim(host, nic, ip, name="%s.mtcp" % name))
    return w, shims[0], shims[1]
