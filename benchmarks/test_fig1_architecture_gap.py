"""FIG1 - the architecture gap (paper Figure 1).

Traditional server architecture (kernel on the data path) vs kernel-bypass
architecture (application + libOS on the data path): echo RTT and the
per-request taxes (syscalls, copied bytes, interrupts) over a message-size
sweep.  The kernel path pays every tax; the bypass path pays none.
"""

from repro.bench.report import print_table, us

SIZES = (64, 512, 1500, 4096, 8192)


def test_fig1_architecture_gap(benchmark, once, metrics):
    def run():
        rows = []
        for size in SIZES:
            kernel = metrics("echo-rtt", "kernel", message_size=size)
            bypass = metrics("echo-rtt", "dpdk", message_size=size)
            rows.append((size,
                         us(kernel["rtt_mean_ns"]),
                         us(bypass["rtt_mean_ns"]),
                         kernel["rtt_mean_ns"] / bypass["rtt_mean_ns"],
                         kernel["syscalls_per_req"],
                         bypass["syscalls_per_req"],
                         kernel["copies_bytes_per_req"],
                         kernel["interrupts_per_req"]))
        return rows

    rows = once(benchmark, run)
    print_table(
        "Figure 1: traditional vs kernel-bypass data path (echo RTT)",
        ["msg B", "kernel RTT", "bypass RTT", "speedup",
         "kern syscalls/req", "bypass syscalls/req",
         "kern copied B/req", "kern irqs/req"],
        rows,
    )
    # The gap: bypass wins at every size, with zero kernel taxes.
    for row in rows:
        assert row[3] > 2.5
        assert row[5] == 0.0
    benchmark.extra_info["speedup_at_64B"] = rows[0][3]
    benchmark.extra_info["speedup_at_8KB"] = rows[-1][3]
