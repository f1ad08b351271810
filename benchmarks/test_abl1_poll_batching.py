"""ABL1 - design ablations on the DPDK libOS datapath.

Two knobs DESIGN.md calls out:

* **RX burst size** - how many frames one poll-loop wake drains.  Under
  a pipelined load, tiny bursts mean more poll wakes per byte.
* **Poll vs interrupt** - the same echo on the poll-mode libOS vs the
  interrupt-driven kernel NIC path isolates the notification mechanism
  (every other cost differs too, but the interrupt cost per frame is
  visible in the counters).
"""

from repro.apps.echo import demi_echo_server
from repro.bench.report import print_table, us
from repro.testbed import make_dpdk_libos_pair

N_MESSAGES = 40
BURSTS = (1, 4, 32)


def run_burst(rx_burst_size):
    w, client, server = make_dpdk_libos_pair()
    client.rx_burst_size = server.rx_burst_size = rx_burst_size
    w.sim.spawn(demi_echo_server(server))

    # Pipelined client: keep 8 requests in flight to stress the RX ring.
    result = {}

    def client_proc():
        qd = yield from client.socket()
        yield from client.connect(qd, "10.0.0.2", 7)
        start = w.sim.now
        tokens = []
        sent = received = 0
        while received < N_MESSAGES:
            while sent < N_MESSAGES and sent - received < 8:
                client.push(qd, client.sga_alloc(b"p" * 256))
                tokens.append(client.pop(qd))
                sent += 1
            index, r = yield from client.wait_any(tokens)
            tokens.pop(index)
            received += 1
        result["elapsed"] = w.sim.now - start

    p = w.sim.spawn(client_proc())
    w.sim.run_until_complete(p, limit=10**13)
    return {
        "burst": rx_burst_size,
        "elapsed_ns": result["elapsed"],
        "throughput_kops": N_MESSAGES / (result["elapsed"] / 1e6),
        "server_cpu_ns": server.core.busy_ns,
    }


def test_abl1_rx_burst_size(benchmark, once):
    def run():
        return [run_burst(b) for b in BURSTS]

    rows = once(benchmark, run)
    print_table(
        "ABL1a: RX burst size under a pipelined echo load (%d msgs)"
        % N_MESSAGES,
        ["rx burst", "total time", "throughput (kops)", "server CPU"],
        [(r["burst"], us(r["elapsed_ns"]), r["throughput_kops"],
          us(r["server_cpu_ns"])) for r in rows],
    )
    by_burst = {r["burst"]: r for r in rows}
    # Larger bursts never lose; burst=1 pays the most poll wakes.
    assert by_burst[32]["elapsed_ns"] <= by_burst[1]["elapsed_ns"]


def test_abl1_poll_vs_interrupt(benchmark, once, metrics):
    def run():
        return metrics("echo-rtt", "dpdk"), metrics("echo-rtt", "kernel")

    poll, interrupt = once(benchmark, run)
    print_table(
        "ABL1b: poll-mode bypass vs interrupt-driven kernel path",
        ["path", "RTT mean", "interrupts/req"],
        [
            ("poll (DPDK libOS)", us(poll["rtt_mean_ns"]),
             poll["interrupts_per_req"]),
            ("interrupt (kernel)", us(interrupt["rtt_mean_ns"]),
             interrupt["interrupts_per_req"]),
        ],
    )
    assert poll["interrupts_per_req"] == 0
    assert interrupt["interrupts_per_req"] > 0
    assert poll["rtt_mean_ns"] < interrupt["rtt_mean_ns"]
