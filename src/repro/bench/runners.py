"""Experiment runners: each returns structured rows for one figure/table.

The benchmark files under ``benchmarks/`` are thin: they call a runner,
print its rows with :func:`repro.bench.report.print_table`, and attach
headline numbers to pytest-benchmark's ``extra_info``.  Keeping the
logic here lets tests assert on experiment *shapes* without the bench
harness, and lets examples reuse the same machinery.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..apps.echo import (
    demi_echo_client,
    demi_echo_server,
    mtcp_echo_client,
    mtcp_echo_server,
    posix_echo_client,
    posix_echo_server,
)
from ..apps.kvstore import (
    OP_GET,
    OP_PUT,
    KvEngine,
    demi_kv_client,
    kv_workload,
    posix_kv_client,
    posix_kv_server,
)
from ..apps.proto import KvEngineStore, LegacyKvCodec, ProtoServer
from ..sim.trace import LatencyStats
from ..testbed import (
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_mtcp_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
    make_spdk_libos,
)

__all__ = [
    "echo_rtt",
    "echo_rtt_all_stacks",
    "kv_rtt",
    "kv_value_size_sweep",
    "kv_rtt_sharded",
    "kv_throughput_scaling",
    "kv_scaling_document",
    "kv_scaling_document_from_rows",
]

WARMUP = 3

#: marginal per-op server-CPU budget (ns) the scaling bench is gated
#: against.  The measured marginal cost is ~3900 ns/op (1-core
#: closed-loop, no batching opportunity); loaded multi-core runs
#: amortize to ~3970.  Every row must land under
#: ``budget + setup_allowance * cores / requests`` or CI fails the
#: sweep - the allowance covers each shard's fixed connection setup
#: (ARP + accept + first-touch, ~110 us), which short smoke runs
#: cannot amortize away.
PER_OP_BUDGET_NS = 4200
PER_OP_SETUP_ALLOWANCE_NS = 120_000


def _trim(stats: LatencyStats, warmup: int = WARMUP) -> LatencyStats:
    trimmed = LatencyStats(stats.name)
    trimmed.extend(stats.samples[warmup:])
    return trimmed


def echo_rtt(flavor: str, message_size: int = 64, count: int = 20,
             seed: int = 42) -> Dict[str, float]:
    """Echo RTT + key counters for one stack flavor.

    Flavors: ``posix`` (kernel sockets), ``mtcp`` (user stack, POSIX
    semantics), ``dpdk`` / ``rdma`` / ``posix-libos`` (Demikernel).
    """
    messages = [b"e" * message_size] * (count + WARMUP)
    if flavor == "posix":
        w, ka, kb = make_kernel_pair(seed=seed)
        w.sim.spawn(posix_echo_server(kb))
        cp = w.sim.spawn(posix_echo_client(ka, "10.0.0.2", messages))
    elif flavor == "mtcp":
        w, ma, mb = make_mtcp_pair(seed=seed)
        w.sim.spawn(mtcp_echo_server(mb))
        cp = w.sim.spawn(mtcp_echo_client(ma, "10.0.0.2", messages))
    elif flavor == "dpdk":
        w, da, db = make_dpdk_libos_pair(seed=seed)
        w.sim.spawn(demi_echo_server(db))
        cp = w.sim.spawn(demi_echo_client(da, "10.0.0.2", messages))
    elif flavor == "rdma":
        w, ra, rb = make_rdma_libos_pair(seed=seed)
        w.sim.spawn(demi_echo_server(rb))
        cp = w.sim.spawn(demi_echo_client(ra, "server-rdma", messages))
    elif flavor == "posix-libos":
        w, pa, pb = make_posix_libos_pair(seed=seed)
        w.sim.spawn(demi_echo_server(pb))
        cp = w.sim.spawn(demi_echo_client(pa, "10.0.0.2", messages))
    else:
        raise ValueError("unknown flavor %r" % flavor)
    w.sim.run_until_complete(cp, limit=10**13)
    _, stats = cp.value
    stats = _trim(stats)
    counters = w.tracer
    per_req = max(1, count)
    return {
        "flavor": flavor,
        "message_size": message_size,
        "rtt_mean_ns": stats.mean,
        "rtt_p50_ns": stats.p50,
        "rtt_p99_ns": stats.p99,
        "syscalls_per_req": (counters.get("client.kernel.syscalls")
                             + counters.get("server.kernel.syscalls")) / per_req,
        "copies_bytes_per_req": (
            counters.get("client.kernel.bytes_copied_tx")
            + counters.get("client.kernel.bytes_copied_rx")
            + counters.get("server.kernel.bytes_copied_tx")
            + counters.get("server.kernel.bytes_copied_rx")
            + counters.get("client.mtcp.bytes_copied_tx")
            + counters.get("client.mtcp.bytes_copied_rx")
            + counters.get("server.mtcp.bytes_copied_tx")
            + counters.get("server.mtcp.bytes_copied_rx")) / per_req,
        "interrupts_per_req": (
            counters.get("client.eth0.rx_interrupts")
            + counters.get("server.eth0.rx_interrupts")) / per_req,
    }


def echo_rtt_all_stacks(message_size: int = 64,
                        count: int = 20) -> List[Dict[str, float]]:
    return [echo_rtt(flavor, message_size, count)
            for flavor in ("posix", "mtcp", "posix-libos", "dpdk", "rdma")]


def kv_rtt(flavor: str, value_size: int = 1024, n_gets: int = 20,
           seed: int = 7) -> Dict[str, float]:
    """KV GET RTT and server-side service cost for one stack."""
    ops = ([(OP_PUT, b"bench-key", b"v" * value_size)]
           + [(OP_GET, b"bench-key", None)] * (n_gets + WARMUP))
    if flavor == "posix":
        w, ka, kb = make_kernel_pair(seed=seed)
        engine = KvEngine(kb.host)
        w.sim.spawn(posix_kv_server(kb, engine, max_requests=len(ops)))
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
        w.sim.run_until_complete(cp, limit=10**13)
        server_cpu = kb.host.cpus[0].busy_ns
    elif flavor == "dpdk":
        w, client, server_libos = make_dpdk_libos_pair(seed=seed)
        server = ProtoServer(server_libos, LegacyKvCodec,
                             KvEngineStore(KvEngine(server_libos.host)),
                             port=6379)
        w.sim.spawn(server.start())
        cp = w.sim.spawn(demi_kv_client(client, "10.0.0.2", ops))
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        server_cpu = server_libos.core.busy_ns
    else:
        raise ValueError("unknown flavor %r" % flavor)
    _, stats = cp.value
    get_stats = LatencyStats("get")
    get_stats.extend(stats.samples[1 + WARMUP:])  # skip the PUT + warmup
    return {
        "flavor": flavor,
        "value_size": value_size,
        "get_rtt_mean_ns": get_stats.mean,
        "get_rtt_p99_ns": get_stats.p99,
        "server_cpu_per_req_ns": server_cpu / len(ops),
    }


def kv_rtt_sharded(n_shards: int, n_ops: int = 200, n_keys: int = 32,
                   value_size: int = 256, get_fraction: float = 0.9,
                   seed: int = 7) -> Dict[str, object]:
    """Closed-loop sharded KV run: one steered client per shard.

    Every client pins its flow to its shard's RX queue and draws only
    that shard's keys, so the run also *measures* the wake-one claim:
    the row carries the wasted/cross wake-up totals (both must be zero)
    alongside throughput and per-core utilization.
    """
    from ..cluster import shard_workload, src_port_for_queue
    from ..sim.rand import Rng
    from ..testbed import make_sharded_kv_world

    w, server, clients = make_sharded_kv_world(
        n_shards, seed=seed, server_kwargs={"codec_factory": LegacyKvCodec})
    server.start()
    rng = Rng(seed).fork_named("kv-scaling")
    procs = []
    # Warmup is per *client*: every client's first ops pay ARP
    # resolution and TCP connect (~100 us), so each one records into
    # its own stats and is trimmed individually - a global trim would
    # leave n_shards-3 cold-start samples in the mean.
    per_client = [LatencyStats("kv-rtt-shard%d" % i)
                  for i in range(n_shards)]
    for i, client in enumerate(clients):
        ops = shard_workload(rng.fork(i), n_ops, i, n_shards,
                             n_keys=n_keys, value_size=value_size,
                             get_fraction=get_fraction)
        procs.append(w.sim.spawn(
            demi_kv_client(client, server.ip, ops, port=server.port,
                           stats=per_client[i],
                           src_port=src_port_for_queue(
                               client.ip, server.ip, i, n_shards,
                               server.port)),
            name="bench.client%d" % i))
    for proc in procs:
        w.sim.run_until_complete(proc, limit=10**13)
    # The row is the run: read it before stop() wakes every dispatcher.
    row = server.metrics_row(w.sim.now, w.tracer)
    server.stop()
    stats = LatencyStats("kv-rtt-sharded")
    for client_stats in per_client:
        stats.extend(client_stats.samples[WARMUP:])
    row["rtt_mean_ns"] = stats.mean
    row["rtt_p99_ns"] = stats.p99
    return row


def kv_throughput_scaling(core_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32),
                          n_ops: int = 200, value_size: int = 256,
                          seed: int = 7) -> List[Dict[str, object]]:
    """The scaling sweep: total throughput as shards are added.

    Offered load scales with the shard count (one closed-loop client
    per shard), so shared-nothing scaling shows as monotonically
    increasing throughput - any flattening would mean cross-core
    serialization the architecture claims not to have.
    """
    return [kv_rtt_sharded(n, n_ops=n_ops, value_size=value_size, seed=seed)
            for n in core_counts]


def kv_scaling_document_from_rows(rows: List[Dict[str, object]],
                                  core_counts: Tuple[int, ...],
                                  n_ops: int = 200, value_size: int = 256,
                                  seed: int = 7) -> Dict[str, object]:
    """Wrap pre-computed sweep rows as a ``kv_scaling`` document.

    The experiment runner produces the rows (one
    :func:`kv_rtt_sharded` result per core count, possibly computed in
    parallel worker processes); this assembles the exact persisted
    document ``repro exp validate`` gates on.
    """
    return {
        "bench": "kv_scaling",
        "schema_version": 2,
        "seed": seed,
        "params": {
            "core_counts": list(core_counts),
            "n_ops_per_shard": n_ops,
            "value_size": value_size,
            "per_op_budget_ns": PER_OP_BUDGET_NS,
            "per_op_setup_allowance_ns": PER_OP_SETUP_ALLOWANCE_NS,
        },
        "rows": rows,
    }


def kv_scaling_document(core_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32),
                        n_ops: int = 200, value_size: int = 256,
                        seed: int = 7) -> Dict[str, object]:
    """The ``BENCH_kv_scaling.json`` document (schema in docs/api.md)."""
    rows = kv_throughput_scaling(core_counts, n_ops=n_ops,
                                 value_size=value_size, seed=seed)
    return kv_scaling_document_from_rows(rows, core_counts, n_ops=n_ops,
                                         value_size=value_size, seed=seed)


def kv_value_size_sweep(sizes: Tuple[int, ...] = (64, 1024, 4096, 16384),
                        n_gets: int = 15) -> List[Dict[str, float]]:
    """C2's sweep: GET RTT vs value size, POSIX (copying) vs Demikernel."""
    rows = []
    for size in sizes:
        posix = kv_rtt("posix", size, n_gets)
        demi = kv_rtt("dpdk", size, n_gets)
        rows.append({
            "value_size": size,
            "posix_rtt_ns": posix["get_rtt_mean_ns"],
            "demi_rtt_ns": demi["get_rtt_mean_ns"],
            "posix_over_demi": posix["get_rtt_mean_ns"] / demi["get_rtt_mean_ns"],
        })
    return rows
