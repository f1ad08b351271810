"""C2 - "copying a 4 KB page takes 1 us on a 4 GHz CPU, adding 50%
overhead to Redis" (section 3.2).

Two measurements:

1. the raw copy-cost model at 4 KB is ~1 us and ~50% of a ~2 us request;
2. end-to-end: KV GET latency, POSIX (copies on both hosts) vs
   Demikernel zero-copy, swept over value size - the POSIX penalty grows
   linearly with size while the Demikernel curve stays flat(ter).
"""

from repro.bench.report import print_table, us
from repro.sim.costs import DEFAULT_COSTS

SIZES = (64, 1024, 4096, 16384)


def test_c2_copy_cost_model(benchmark, once):
    def run():
        c = DEFAULT_COSTS
        rows = []
        for size in SIZES:
            copy_ns = c.copy_ns(size)
            redis_service_ns = c.kv_parse_ns + c.kv_get_ns + 1000
            rows.append((size, us(copy_ns),
                         100.0 * copy_ns / redis_service_ns))
        return rows

    rows = once(benchmark, run)
    print_table(
        "C2a: the copy-cost model vs a ~2us Redis request",
        ["bytes", "copy cost", "% of 2us request"],
        rows,
    )
    # The paper's exact anchor: ~1 us for 4 KB, ~50% overhead.
    at_4k = dict((r[0], r) for r in rows)[4096]
    assert 0.9 <= float(at_4k[1].split()[0]) <= 1.2
    assert 40.0 <= at_4k[2] <= 60.0


def test_c2_copy_overhead_end_to_end(benchmark, once, metrics):
    def run():
        rows = []
        for size in SIZES:
            posix, demi = (metrics("kv-rtt", flavor, value_size=size,
                                   n_gets=15)["get_rtt_mean_ns"]
                           for flavor in ("kernel", "dpdk"))
            rows.append({"value_size": size, "posix_rtt_ns": posix,
                         "demi_rtt_ns": demi,
                         "posix_over_demi": posix / demi})
        return rows

    rows = once(benchmark, run)
    print_table(
        "C2b: KV GET RTT, POSIX copies vs Demikernel zero-copy",
        ["value B", "POSIX RTT", "Demikernel RTT", "POSIX/Demi"],
        [(r["value_size"], us(r["posix_rtt_ns"]), us(r["demi_rtt_ns"]),
          r["posix_over_demi"]) for r in rows],
    )
    # POSIX's penalty grows with value size faster than the Demikernel's.
    posix_growth = rows[-1]["posix_rtt_ns"] - rows[0]["posix_rtt_ns"]
    demi_growth = rows[-1]["demi_rtt_ns"] - rows[0]["demi_rtt_ns"]
    assert posix_growth > 1.5 * demi_growth
    # And the gap is material already at 4 KB.
    at_4k = [r for r in rows if r["value_size"] == 4096][0]
    assert at_4k["posix_over_demi"] > 2.0
    benchmark.extra_info["posix_over_demi_at_4k"] = at_4k["posix_over_demi"]
