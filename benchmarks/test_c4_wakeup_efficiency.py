"""C4 - epoll's wasted wake-ups vs wait_any's exactly-one (section 4.4).

N workers serve one request stream.  epoll (level-triggered, shared fd)
wakes every blocked worker per arrival; one wins the recv race, the rest
wasted a wake-up and a syscall.  wait_any workers block on distinct
qtokens: one completion, one wake-up, data included.

The table compares wake-ups, not the full cost of a request.  An epoll
worker sends one reply per request, so its ``syscalls/req`` column
includes that ``send``.  A wait_any worker pops from a local queue and
sends nothing.
"""

from repro.apps.eventloop import EpollWorkerPool, WaitAnyWorkerPool
from repro.bench.report import print_table
from repro.core.api import LibOS
from repro.testbed import World, make_kernel_pair

N_REQUESTS = 20
WORKER_COUNTS = (1, 2, 4, 8)


def run_epoll(n_workers):
    w, ka, kb = make_kernel_pair(cores=n_workers + 2)
    pool = EpollWorkerPool(kb, n_workers)

    def client():
        sys = ka.thread()
        fd = yield from sys.socket()
        yield from sys.connect(fd, "10.0.0.2", 80)
        for i in range(N_REQUESTS):
            yield from sys.send(fd, b"req-%02d" % i)
            yield from sys.recv(fd)

    def server_main():
        sys = kb.thread()
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 80)
        yield from sys.listen(lfd)
        conn_fd = yield from sys.accept(lfd)
        epfd = yield from sys.epoll_create()
        yield from sys.epoll_ctl_add(epfd, conn_fd)
        pool.start(epfd, conn_fd)

    w.sim.spawn(server_main())
    cp = w.sim.spawn(client())
    syscalls_before = w.tracer.get("server.kernel.syscalls")
    w.sim.run_until_complete(cp, limit=10**13)
    pool.stop()
    w.run(until=w.sim.now + 2_000_000)
    syscalls = w.tracer.get("server.kernel.syscalls") - syscalls_before
    return {
        "workers": n_workers,
        "wakeups": pool.wakeups,
        "wasted": pool.wasted_wakeups,
        "served": pool.requests_served,
        "syscalls_per_req": syscalls / max(1, pool.requests_served),
    }


def run_wait_any(n_workers):
    w = World()
    host = w.add_host("h", cores=n_workers + 1)
    libos = LibOS(host, "demi")
    qd = libos.queue()
    pool = WaitAnyWorkerPool(libos, n_workers)
    pool.start(qd)

    def producer():
        for i in range(N_REQUESTS):
            yield from libos.blocking_push(qd, libos.sga_alloc(b"req-%02d" % i))
            yield w.sim.timeout(20_000)

    pp = w.sim.spawn(producer())
    w.sim.run_until_complete(pp, limit=10**13)
    w.run(until=w.sim.now + 2_000_000)
    pool.stop()
    w.run(until=w.sim.now + 2_000_000)
    return {
        "workers": n_workers,
        "wakeups": pool.wakeups,
        "wasted": pool.wasted_wakeups,
        "served": pool.requests_served,
        "syscalls_per_req": 0.0,
    }


def test_c4_wakeup_efficiency(benchmark, once):
    def run():
        rows = []
        for n in WORKER_COUNTS:
            e = run_epoll(n)
            d = run_wait_any(n)
            rows.append((n,
                         e["wakeups"], e["wasted"], e["syscalls_per_req"],
                         d["wakeups"], d["wasted"]))
            assert e["served"] == N_REQUESTS
            assert d["served"] == N_REQUESTS
        return rows

    rows = once(benchmark, run)
    print_table(
        "C4: wake-ups for %d requests - epoll herd vs wait_any"
        % N_REQUESTS,
        ["workers", "epoll wakeups", "epoll wasted", "epoll syscalls/req",
         "wait_any wakeups", "wait_any wasted"],
        rows,
    )
    by_workers = {r[0]: r for r in rows}
    # One worker: no herd anywhere.
    assert by_workers[1][2] == 0
    # More workers: epoll waste grows with N; wait_any stays at zero.
    assert by_workers[8][2] > by_workers[2][2] > 0
    for r in rows:
        assert r[5] == 0                      # wait_any never wastes
        assert r[4] == N_REQUESTS             # exactly one wake per request
    benchmark.extra_info["epoll_wasted_at_8"] = by_workers[8][2]
