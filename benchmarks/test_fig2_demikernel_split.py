"""FIG2 - the Demikernel architecture split (paper Figure 2).

Control-path operations (connection setup - infrequent, allowed to be
slow, left to kernel-style services) vs data-path operations (push+pop
round trips - on every I/O) across every library OS.  The architecture
holds if the data path is microsecond-scale on the bypass libOSes while
control-path costs are comparable (and much larger) everywhere.  A
network libOS's data path is the ``echo-rtt`` workload's mean RTT at
64 B; the storage libOS's is a push+pop on one file queue.
"""

from repro.apps.echo import demi_echo_server
from repro.bench.report import print_table, us
from repro.testbed import (
    make_dpdk_libos_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
    make_spdk_libos,
)

N_MESSAGES = 20


def _connect_ns(make_pair, server_addr):
    """Control path: one connect to a listening echo server."""
    w, client, server = make_pair()
    w.sim.spawn(demi_echo_server(server))
    result = {}

    def connect_probe():
        qd = yield from client.socket()
        start = w.sim.now
        yield from client.connect(qd, server_addr, 7)
        result["control_ns"] = w.sim.now - start
        yield from client.close(qd)

    p = w.sim.spawn(connect_probe())
    w.sim.run_until_complete(p, limit=10**13)
    return result["control_ns"]


def _storage_split():
    w, libos = make_spdk_libos()
    result = {}

    def proc():
        start = w.sim.now
        qd = yield from libos.creat("/fig2")
        result["control_ns"] = w.sim.now - start
        # warm-up
        for _ in range(3):
            yield from libos.blocking_push(qd, libos.sga_alloc(b"d" * 64))
        start = w.sim.now
        for _ in range(N_MESSAGES):
            yield from libos.blocking_push(qd, libos.sga_alloc(b"d" * 64))
            yield from libos.blocking_pop(qd)
        result["data_ns"] = (w.sim.now - start) / N_MESSAGES

    p = w.sim.spawn(proc())
    w.sim.run_until_complete(p, limit=10**13)
    return result


def test_fig2_demikernel_split(benchmark, once, metrics):
    def run():
        rows = []
        for name, make_pair, addr, flavor in (
            ("catnip (DPDK)", make_dpdk_libos_pair, "10.0.0.2", "dpdk"),
            ("catmint (RDMA)", make_rdma_libos_pair, "server-rdma", "rdma"),
            ("catnap (POSIX)", make_posix_libos_pair, "10.0.0.2", "posix"),
        ):
            control_ns = _connect_ns(make_pair, addr)
            data_ns = metrics("echo-rtt", flavor,
                              message_size=64)["rtt_mean_ns"]
            rows.append((name, us(control_ns), us(data_ns),
                         control_ns / data_ns))
        r = _storage_split()
        rows.append(("catfish (SPDK)", us(r["control_ns"]), us(r["data_ns"]),
                     r["control_ns"] / r["data_ns"]))
        return rows

    rows = once(benchmark, run)
    print_table(
        "Figure 2: control path vs data path per library OS",
        ["libOS", "control (connect/creat)", "data (per element)",
         "control/data ratio"],
        rows,
    )
    # Data path is microseconds on the bypass libOSes...
    by_name = {r[0]: r for r in rows}
    assert float(by_name["catnip (DPDK)"][2].split()[0]) < 10
    assert float(by_name["catmint (RDMA)"][2].split()[0]) < 10
    # ...and on those libOSes the control path is the slow, infrequent
    # part - fine to leave in kernel-style services (section 4.1).
    assert by_name["catnip (DPDK)"][3] > 1.0
    assert by_name["catmint (RDMA)"][3] > 1.0
