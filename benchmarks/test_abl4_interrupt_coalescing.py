"""ABL4 - interrupt coalescing: the legacy dilemma bypass escapes.

Before kernel bypass, the kernel's answers to interrupt overhead were
NAPI - an interrupt starts a poll that takes every frame landing before
the softirq work drains - and NIC interrupt moderation, which parks
frames that land after the poll under one interrupt at a window's end.
NAPI saves interrupts only while frames keep arriving; moderation saves
more but *adds latency* - up to a full window per frame.  Poll-mode
bypass gets both (no interrupts at all, no added latency), which is the
historical context for Figure 1's right-hand side.

Measured here: kernel-path echo RTT and interrupts/frame with coalescing
off vs a 20 us window, against the DPDK libOS reference.
"""

from repro.apps.echo import posix_echo_client, posix_echo_server
from repro.bench.report import print_table, us
from repro.testbed import make_kernel_pair

N_MESSAGES = 15
WINDOW_NS = 20_000


def run_kernel_echo(coalesce_ns):
    w, ka, kb = make_kernel_pair()
    ka.nic.coalesce_ns = kb.nic.coalesce_ns = coalesce_ns
    w.sim.spawn(posix_echo_server(kb))
    cp = w.sim.spawn(posix_echo_client(ka, "10.0.0.2",
                                       [b"c" * 64] * N_MESSAGES))
    w.sim.run_until_complete(cp, limit=10**14)
    _, stats = cp.value
    steady = stats.samples[3:]
    frames = (w.tracer.get("client.eth0.rx_frames")
              + w.tracer.get("server.eth0.rx_frames"))
    interrupts = (w.tracer.get("client.eth0.rx_interrupts")
                  + w.tracer.get("server.eth0.rx_interrupts"))
    return {
        "rtt_ns": sum(steady) / len(steady),
        "interrupts_per_frame": interrupts / max(1, frames),
    }


def run_dpdk_echo(metrics):
    """The echo-rtt row on the DPDK libOS: N_MESSAGES echoes, the first
    three trimmed as warm-up."""
    row = metrics("echo-rtt", "dpdk", count=N_MESSAGES - 3)
    # Not one interrupt at all, so none per frame either.
    return {"rtt_ns": row["rtt_mean_ns"],
            "interrupts_per_frame": row["interrupts_per_req"]}


def run_kernel_stream(coalesce_ns):
    """Bulk transfer: where coalescing actually earns its keep."""
    w, ka, kb = make_kernel_pair()
    ka.nic.coalesce_ns = kb.nic.coalesce_ns = coalesce_ns

    def server():
        sys = kb.thread()
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 80)
        yield from sys.listen(lfd)
        fd = yield from sys.accept(lfd)
        total = 0
        while total < 200_000:
            data = yield from sys.recv(fd)
            if not data:
                break
            total += len(data)
        return total

    def client():
        sys = ka.thread()
        fd = yield from sys.socket()
        yield from sys.connect(fd, "10.0.0.2", 80)
        yield from sys.send(fd, b"s" * 200_000)

    sp = w.sim.spawn(server())
    w.sim.spawn(client())
    w.sim.run_until_complete(sp, limit=10**14)
    frames = max(1, w.tracer.get("server.eth0.rx_frames"))
    return {
        "interrupts_per_frame":
            w.tracer.get("server.eth0.rx_interrupts") / frames,
        "polled_per_frame": w.tracer.get("server.eth0.rx_polled") / frames,
    }


def test_abl4_interrupt_coalescing(benchmark, once, metrics):
    def run():
        return [
            ("kernel, no coalescing", run_kernel_echo(0)),
            ("kernel, %dus window" % (WINDOW_NS // 1000),
             run_kernel_echo(WINDOW_NS)),
            ("DPDK libOS (poll)", run_dpdk_echo(metrics)),
        ]

    rows = once(benchmark, run)
    print_table(
        "ABL4: interrupt coalescing - the latency/CPU dilemma",
        ["path", "echo RTT", "interrupts/frame"],
        [(name, us(r["rtt_ns"]), "%.2f" % r["interrupts_per_frame"])
         for name, r in rows],
    )
    results = dict(rows)
    plain = results["kernel, no coalescing"]
    coalesced = results["kernel, %dus window" % (WINDOW_NS // 1000)]
    bypass = results["DPDK libOS (poll)"]

    # The CPU side of the trade is visible under *streaming* load.
    stream_plain = run_kernel_stream(0)
    stream_coalesced = run_kernel_stream(WINDOW_NS)
    print_table(
        "ABL4b: 200KB bulk receive - interrupts and NAPI-polled per frame",
        ["setting", "interrupts/frame", "polled/frame"],
        [(name, "%.2f" % r["interrupts_per_frame"],
          "%.2f" % r["polled_per_frame"])
         for name, r in (("no coalescing", stream_plain),
                         ("%dus window" % (WINDOW_NS // 1000),
                          stream_coalesced))],
    )

    # Coalescing trades latency (ping-pong RTT up)...
    assert coalesced["rtt_ns"] > plain["rtt_ns"]
    # ...for interrupts NAPI already saves under a stream: without a
    # window, its poll takes at least 95 % of streamed frames...
    assert stream_plain["polled_per_frame"] >= 0.95
    # ...while bypass simply wins both axes.
    assert bypass["rtt_ns"] < plain["rtt_ns"]
    assert bypass["interrupts_per_frame"] == 0.0
    benchmark.extra_info["coalescing_latency_penalty_us"] = (
        coalesced["rtt_ns"] - plain["rtt_ns"]) / 1000.0
