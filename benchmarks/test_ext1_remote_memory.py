"""EXT1 - remote-memory queues (section 4.1's "remote memory" data path).

The paper lists remote memory as the third I/O class the queue
abstraction must cover.  This extension bench prices it: element transfer
latency through (a) a local in-memory Demikernel queue, (b) an RDMA-libOS
network queue (two-sided, CPU on both ends), and (c) a disaggregated
ring in a passive memory node (one-sided only, zero memory-node CPU).

Expected shape: local << network < remote-memory (a pop costs at least
one extra round trip to the memory node), but the memory node's CPU
column is zero - that is what disaggregation buys.
"""

from repro.bench.report import print_table, us
from repro.core.api import LibOS
from repro.testbed import World, make_rmem_world

N_ELEMENTS = 30
ELEMENT = b"x" * 512


def run_local_queue():
    w = World()
    host = w.add_host("h")
    libos = LibOS(host, "demi")
    qd = libos.queue()

    def proc():
        start = w.sim.now
        for _ in range(N_ELEMENTS):
            yield from libos.blocking_push(qd, libos.sga_alloc(ELEMENT))
            yield from libos.blocking_pop(qd)
        return (w.sim.now - start) / N_ELEMENTS

    p = w.sim.spawn(proc())
    w.sim.run_until_complete(p, limit=10**13)
    return {"path": "local memory queue", "latency_ns": p.value,
            "third_party_cpu_ns": 0}


def run_network_queue(metrics):
    # The echo-rtt row: N_ELEMENTS echoes, the first three trimmed as
    # warm-up.  Echo = two transfers; halve for a one-way element move.
    row = metrics("echo-rtt", "rdma", message_size=len(ELEMENT),
                  count=N_ELEMENTS - 3)
    return {"path": "RDMA libOS queue (two-sided)",
            "latency_ns": row["rtt_mean_ns"] / 2,
            "third_party_cpu_ns": 0}


def run_remote_memory_queue():
    w, producer, consumer, memnode = make_rmem_world(slot_size=1024)
    w.run()
    memnode_cpu_before = memnode.cpu.busy_ns
    latencies = []

    def produce():
        for _ in range(N_ELEMENTS):
            start = w.sim.now
            yield from producer.push(ELEMENT)
            yield consumed.wait()
            latencies.append(w.sim.now - start)

    from repro.sim.sync import WaitQueue
    consumed = WaitQueue(w.sim, "handoff")

    def consume():
        for _ in range(N_ELEMENTS):
            payload = yield from consumer.pop()
            assert payload == ELEMENT
            consumed.pulse()

    w.sim.spawn(consume())
    pp = w.sim.spawn(produce())
    w.sim.run_until_complete(pp, limit=10**13)
    return {"path": "remote-memory ring (one-sided)",
            "latency_ns": sum(latencies) / len(latencies),
            "third_party_cpu_ns": memnode.cpu.busy_ns - memnode_cpu_before}


def test_ext1_remote_memory(benchmark, once, metrics):
    def run():
        return [run_local_queue(), run_network_queue(metrics),
                run_remote_memory_queue()]

    rows = once(benchmark, run)
    print_table(
        "EXT1: one element (512 B) through three queue substrates",
        ["substrate", "element latency", "memory-node CPU"],
        [(r["path"], us(r["latency_ns"]), us(r["third_party_cpu_ns"]))
         for r in rows],
    )
    local, network, remote = rows
    # Local is by far the cheapest; remote memory pays RDMA round trips.
    assert local["latency_ns"] < network["latency_ns"]
    assert local["latency_ns"] < remote["latency_ns"]
    # The memory node never burns a cycle on the data path.
    assert remote["third_party_cpu_ns"] == 0
    benchmark.extra_info["remote_over_local"] = (
        remote["latency_ns"] / local["latency_ns"])
