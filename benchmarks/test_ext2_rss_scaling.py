"""EXT2 - multi-core receive scaling with RSS queues.

Kernel bypass's other dividend: with per-core RX rings (receive-side
scaling), adding cores adds capacity without locks or cross-core wakeups.
The ``kv-scaling`` workload at 1, 2 and 4 shared-nothing shards, each
shard one core and one RX queue with its own steered client; throughput
should rise with core count.
"""

from repro.bench.report import print_table, us

CORES = (1, 2, 4)


def test_ext2_rss_scaling(benchmark, once, metrics):
    rows = once(benchmark, lambda: [metrics("kv-scaling", "dpdk", cores=n)
                                    for n in CORES])
    print_table(
        "EXT2: sharded KV throughput with N RX queues/cores",
        ["RX queues (cores)", "requests", "ops/s", "server CPU/op",
         "wasted/cross wakes"],
        [(r["cores"], r["requests"], "%.0f" % r["throughput_ops_per_s"],
          us(r["per_op_server_cpu_ns"]),
          "%d/%d" % (r["wasted_wakeups"], r["cross_shard_wakeups"]))
         for r in rows],
    )
    throughput = [r["throughput_ops_per_s"] for r in rows]
    # More cores, more throughput; 4 cores at least 2x one.
    assert throughput[0] < throughput[1] < throughput[2]
    assert throughput[2] >= 2 * throughput[0]
    benchmark.extra_info["speedup_4_cores"] = throughput[2] / throughput[0]
