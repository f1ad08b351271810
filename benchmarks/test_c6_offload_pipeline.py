"""C6 - offloadable queue pipelines (sections 4.2-4.3).

The FlexNIC example: a filter -> map -> steer pipeline on a programmable
NIC.  The ``kv-offload`` workload runs the same UDP KV GET trace twice,
once served by the host and once with the NIC-resident GET program
(``KvNicOffload``) installed, which parses each request, answers GETs
from the device and steers the rest to the shard that owns the key.
Offload removes the per-request work from the host CPU.
"""

from repro.bench.report import print_table, us

N_GETS = 200


def test_c6_offload_pipeline(benchmark, once, metrics):
    row = once(benchmark, lambda: metrics("kv-offload", "dpdk",
                                          n_gets=N_GETS))
    host_ns = row["host_cpu_per_op_host_ns"]
    offload_ns = row["host_cpu_per_op_offload_ns"]
    print_table(
        "C6: UDP KV GETs, host-served vs NIC-resident program (%d GETs)"
        % N_GETS,
        ["placement", "host CPU / op", "RTT p50", "served on host"],
        [("host CPU", us(host_ns), us(row["rtt_p50_host_ns"]),
          row["served_on_host_baseline"]),
         ("device (offloaded)", us(offload_ns),
          us(row["rtt_p50_offload_ns"]), row["served_on_host_offload"])],
    )
    # Every GET answered on the device, at half the host CPU or better.
    assert row["offload_kv_hits"] == N_GETS
    assert offload_ns * 2 <= host_ns
    benchmark.extra_info["host_cpu_saved_per_op_ns"] = host_ns - offload_ns
