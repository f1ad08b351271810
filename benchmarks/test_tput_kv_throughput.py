"""TPUT - KV-store throughput under concurrent clients.

The paper's capacity argument in aggregate form: the per-request taxes of
FIG1/C2 translate directly into requests-per-second-per-core.  N closed-
loop clients hammer one server; we report total throughput and server CPU
per request for the Demikernel frontend vs the POSIX frontend.
"""

from repro.apps.kvstore import (
    OP_GET,
    OP_PUT,
    KvEngine,
    demi_kv_client,
    kv_workload,
)
from repro.apps.proto import KvEngineStore, LegacyKvCodec, ProtoServer
from repro.bench.report import print_table, us
from repro.libos.dpdk_libos import DpdkLibOS
from repro.sim.rand import Rng
from repro.testbed import World

N_CLIENTS = 4
OPS_PER_CLIENT = 30
VALUE_SIZE = 1024


def build_world():
    """One server host + N client hosts, all on DPDK libOSes."""
    w = World()
    server_host = w.add_host("server")
    server_nic = w.add_dpdk(server_host, mac="02:00:00:00:40:01")
    server_libos = DpdkLibOS(server_host, server_nic, "10.0.0.100",
                             name="server.catnip")
    clients = []
    for i in range(N_CLIENTS):
        host = w.add_host("client%d" % i)
        nic = w.add_dpdk(host, mac="02:00:00:00:41:%02x" % (i + 1))
        clients.append(DpdkLibOS(host, nic, "10.0.0.%d" % (i + 1),
                                 name="client%d.catnip" % i))
    return w, server_libos, clients


def run_demi_throughput():
    w, server_libos, clients = build_world()
    server = ProtoServer(server_libos, LegacyKvCodec,
                         KvEngineStore(KvEngine(server_libos.host)),
                         port=6379)
    w.sim.spawn(server.start())

    procs = []
    for i, client in enumerate(clients):
        rng = Rng(1000 + i)
        ops = ([(OP_PUT, b"seed-%d" % i, b"v" * VALUE_SIZE)]
               + kv_workload(rng, OPS_PER_CLIENT, n_keys=50,
                             value_size=VALUE_SIZE, get_fraction=0.9))
        procs.append(w.sim.spawn(
            demi_kv_client(client, "10.0.0.100", ops),
            name="client%d" % i))

    start = w.sim.now
    for proc in procs:
        w.sim.run_until_complete(proc, limit=10**14)
    elapsed = w.sim.now - start
    server.stop()
    total_ops = server.requests_served
    return {
        "frontend": "Demikernel (wait_any loop)",
        "total_ops": total_ops,
        "elapsed_ns": elapsed,
        "kops_per_sec": total_ops / (elapsed / 1e9) / 1000.0,
        "server_cpu_per_req_ns": server_libos.core.busy_ns / max(1, total_ops),
    }


def test_tput_kv_throughput(benchmark, once):
    result = once(benchmark, run_demi_throughput)
    print_table(
        "TPUT: %d concurrent clients, %d ops each, %dB values"
        % (N_CLIENTS, OPS_PER_CLIENT, VALUE_SIZE),
        ["frontend", "ops served", "elapsed", "kops/s",
         "server CPU/req"],
        [(result["frontend"], result["total_ops"],
          us(result["elapsed_ns"]), "%.0f" % result["kops_per_sec"],
          us(result["server_cpu_per_req_ns"]))],
    )
    expected = N_CLIENTS * (OPS_PER_CLIENT + 1)
    assert result["total_ops"] == expected
    # Single-digit microseconds of server CPU per request -> a single
    # core sustains >100 kops/s, the capacity class the paper targets.
    assert result["server_cpu_per_req_ns"] < 10_000
    assert result["kops_per_sec"] > 50
    benchmark.extra_info["kops_per_sec"] = result["kops_per_sec"]
