"""Tests for the worker pools (C4) and key steering (C6)."""

from collections import Counter

import pytest

from repro.apps.eventloop import EpollWorkerPool, WaitAnyWorkerPool
from repro.apps.steering import key_partition
from repro.core.api import LibOS

from ..conftest import World, make_kernel_pair


class TestEpollWorkerPool:
    def _run(self, n_workers, n_requests):
        w, ka, kb = make_kernel_pair(cores=n_workers + 2)
        pool = EpollWorkerPool(kb, n_workers)

        def client():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 80)
            for i in range(n_requests):
                yield from sys.send(fd, b"req-%d" % i)
                yield from sys.recv(fd)  # wait for the echo

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
        w.sim.run_until_complete(cp, limit=10**12)
        pool.stop()
        w.run(until=w.sim.now + 1_000_000)
        return pool

    def test_serves_all_requests(self):
        pool = self._run(n_workers=2, n_requests=5)
        assert pool.requests_served == 5

    def test_herd_wastes_wakeups(self):
        pool = self._run(n_workers=4, n_requests=10)
        assert pool.requests_served == 10
        # Every request woke more workers than it fed.
        assert pool.wasted_wakeups > 0
        assert pool.wakeups > pool.requests_served


class TestWaitAnyWorkerPool:
    def _run(self, n_workers, n_requests):
        w = World()
        host = w.add_host("h", cores=n_workers + 1)
        libos = LibOS(host, "demi")
        qd = libos.queue()
        pool = WaitAnyWorkerPool(libos, n_workers)
        pool.start(qd)

        def producer():
            for i in range(n_requests):
                yield from libos.blocking_push(
                    qd, libos.sga_alloc(b"req-%d" % i))
                yield w.sim.timeout(10_000)

        pp = w.sim.spawn(producer())
        w.sim.run_until_complete(pp, limit=10**12)
        w.run(until=w.sim.now + 1_000_000)
        pool.stop()
        w.run(until=w.sim.now + 1_000_000)
        return pool

    def test_serves_all_requests(self):
        pool = self._run(n_workers=2, n_requests=5)
        assert pool.requests_served == 5

    def test_zero_wasted_wakeups(self):
        """The C4 contrast: same N workers, zero waste."""
        pool = self._run(n_workers=4, n_requests=10)
        assert pool.requests_served == 10
        assert pool.wasted_wakeups == 0
        assert pool.wakeups == pool.requests_served
        # Each worker frees what it popped: the heap ends as it started.
        assert pool.libos.host.mm.live_buffer_count == 0


class TestKeyPartition:
    def test_owner_is_fixed_by_the_key_bytes(self):
        # Shard ownership is the NIC's RSS hash, not Python's hash(): it
        # is the same in every process, whatever PYTHONHASHSEED is.
        assert [key_partition(b"key-%d" % i, 4) for i in range(4)] \
            == [2, 3, 0, 1]
        assert key_partition(b"k", 4) == 3
        assert key_partition(b"k", 1) == key_partition(b"k", 0) == 0

    @pytest.mark.parametrize("n_partitions", [2, 3, 4, 8])
    def test_keys_spread_over_every_partition(self, n_partitions):
        owners = Counter(key_partition(b"key-%d" % i, n_partitions)
                         for i in range(400))
        assert sorted(owners) == list(range(n_partitions))
        fair = 400 / n_partitions
        assert all(0.9 * fair <= n <= 1.1 * fair for n in owners.values())
