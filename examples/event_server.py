#!/usr/bin/env python3
"""Multi-worker event servers: the epoll herd vs wait_any (section 4.4).

Four workers serve twenty requests on each primitive; the tables show the
wake-up accounting the paper's argument rests on: epoll wakes everyone
per event, wait_any wakes exactly the token's owner with the data in
hand.

Run:  python examples/event_server.py
"""

from repro.apps.eventloop import EpollWorkerPool, WaitAnyWorkerPool
from repro.bench.report import print_table
from repro.core.api import LibOS
from repro.testbed import World, make_kernel_pair

N_WORKERS = 4
N_REQUESTS = 20


def epoll_side():
    world, ka, kb = make_kernel_pair(cores=N_WORKERS + 2)
    pool = EpollWorkerPool(kb, N_WORKERS)

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

    world.sim.spawn(server_main())
    cp = world.sim.spawn(client())
    world.sim.run_until_complete(cp, limit=10**13)
    pool.stop()
    world.run(until=world.sim.now + 2_000_000)
    return pool


def wait_any_side():
    world = World()
    host = world.add_host("h", cores=N_WORKERS + 1)
    libos = LibOS(host, "demi")
    qd = libos.queue()
    pool = WaitAnyWorkerPool(libos, N_WORKERS)
    pool.start(qd)

    def producer():
        for i in range(N_REQUESTS):
            yield from libos.blocking_push(qd, libos.sga_alloc(b"req-%02d" % i))
            yield world.sim.timeout(20_000)

    pp = world.sim.spawn(producer())
    world.sim.run_until_complete(pp, limit=10**13)
    world.run(until=world.sim.now + 2_000_000)
    pool.stop()
    world.run(until=world.sim.now + 2_000_000)
    return pool


if __name__ == "__main__":
    epoll = epoll_side()
    waitany = wait_any_side()
    print_table(
        "%d workers, %d requests" % (N_WORKERS, N_REQUESTS),
        ["primitive", "served", "wake-ups", "wasted wake-ups"],
        [
            ("epoll (shared fd)", epoll.requests_served, epoll.wakeups,
             epoll.wasted_wakeups),
            ("wait_any (per-op qtokens)", waitany.requests_served,
             waitany.wakeups, waitany.wasted_wakeups),
        ],
    )
    print("epoll woke %.1f workers per request; wait_any woke exactly 1."
          % (epoll.wakeups / max(1, epoll.requests_served)))
