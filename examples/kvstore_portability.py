#!/usr/bin/env python3
"""Portability: one echo application, three library OSes.

The paper's core promise - "applications ... unmodified as devices
continue to evolve" - demonstrated by running the *identical* application
functions over the DPDK libOS, the RDMA libOS, and the POSIX libOS, then
racing the Redis-like KV store on the Demikernel against the same engine
behind kernel sockets.

Run:  python examples/kvstore_portability.py
"""

from repro.apps.echo import demi_echo_client, demi_echo_server
from repro.apps.kvstore import (
    OP_GET,
    OP_PUT,
    KvEngine,
    demi_kv_client,
    kv_workload,
    posix_kv_client,
    posix_kv_server,
)
from repro.apps.proto import KvEngineStore, LegacyKvCodec, ProtoServer
from repro.bench.report import print_table, us
from repro.sim.rand import Rng
from repro.testbed import (
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
)


def portable_echo():
    """The same two functions on three different accelerators."""
    rows = []
    for name, make_pair, addr in (
        ("catnip / DPDK NIC", make_dpdk_libos_pair, "10.0.0.2"),
        ("catmint / RDMA NIC", make_rdma_libos_pair, "server-rdma"),
        ("catnap / no bypass hw", make_posix_libos_pair, "10.0.0.2"),
    ):
        world, client_libos, server_libos = make_pair()
        world.sim.spawn(demi_echo_server(server_libos))
        client = world.sim.spawn(
            demi_echo_client(client_libos, addr, [b"x" * 64] * 10))
        world.sim.run_until_complete(client, limit=10**13)
        _replies, stats = client.value
        steady = stats.samples[3:]
        rows.append((name, us(sum(steady) / len(steady))))
    print_table("One application, three library OSes (echo RTT)",
                ["libOS / device", "steady-state RTT"], rows)


def kv_comparison():
    """Redis-like store: Demikernel zero-copy vs POSIX copies."""
    rng = Rng(123)
    ops = [(OP_PUT, b"warm-key", b"v" * 4096)] + kv_workload(
        rng, 40, n_keys=8, value_size=4096, get_fraction=0.8)

    # Demikernel frontend.
    world, client_libos, server_libos = make_dpdk_libos_pair()
    server = ProtoServer(server_libos, LegacyKvCodec,
                         KvEngineStore(KvEngine(server_libos.host)),
                         port=6379)
    world.sim.spawn(server.start())
    client = world.sim.spawn(demi_kv_client(client_libos, "10.0.0.2", ops))
    world.sim.run_until_complete(client, limit=10**13)
    server.stop()
    demi_stats = client.value[1]

    # POSIX frontend, same engine logic.
    world2, ka, kb = make_kernel_pair()
    engine = KvEngine(kb.host)
    world2.sim.spawn(posix_kv_server(kb, engine, max_requests=len(ops)))
    client2 = world2.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
    world2.sim.run_until_complete(client2, limit=10**13)
    posix_stats = client2.value[1]

    print_table(
        "Redis-like KV (4KB values): Demikernel vs POSIX frontend",
        ["frontend", "mean RTT", "p99 RTT"],
        [
            ("Demikernel (zero-copy)", us(demi_stats.mean),
             us(demi_stats.p99)),
            ("POSIX (copies)", us(posix_stats.mean), us(posix_stats.p99)),
        ],
    )
    print("deferred frees (values freed mid-DMA, protected): %d"
          % world.tracer.get("mm.deferred_frees"))


if __name__ == "__main__":
    portable_echo()
    kv_comparison()
