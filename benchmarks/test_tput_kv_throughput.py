"""TPUT - KV-store throughput under concurrent clients.

The paper's capacity argument in aggregate form: the per-request taxes of
FIG1/C2 translate directly into requests-per-second-per-core.  The ``kv``
workload on the DPDK libOS: ``cores`` closed-loop clients hammer one
Demikernel KV server.  Server CPU per request is C1's column (the same
``ProtoServer``) and EXT3's ``per_op_server_cpu_ns``.
"""

from repro.bench.report import print_table, us

N_CLIENTS = 4
OPS_PER_CLIENT = 30
VALUE_SIZE = 1024


def test_tput_kv_throughput(benchmark, once, metrics):
    row = once(benchmark, lambda: metrics(
        "kv", "dpdk", cores=N_CLIENTS, n_ops=OPS_PER_CLIENT, n_keys=50,
        value_size=VALUE_SIZE, get_fraction=0.9))
    kops_per_sec = row["throughput_ops_per_s"] / 1000.0
    print_table(
        "TPUT: %d concurrent clients, %d ops each, %dB values"
        % (N_CLIENTS, OPS_PER_CLIENT, VALUE_SIZE),
        ["frontend", "ops served", "elapsed", "kops/s", "RTT mean"],
        [("Demikernel (DPDK)", row["requests"], us(row["elapsed_ns"]),
          "%.0f" % kops_per_sec, us(row["rtt_mean_ns"]))],
    )
    assert row["requests"] == N_CLIENTS * OPS_PER_CLIENT
    # One server core sustains well over 50 kops/s: the capacity class
    # the paper targets.
    assert kops_per_sec > 50
    benchmark.extra_info["kops_per_sec"] = kops_per_sec
