"""Multi-worker event-loop servers: epoll herd vs wait_any (claim C4).

The same workload - N worker threads serving one request stream - on the
two notification primitives the paper contrasts:

* :class:`EpollWorkerPool` - workers share a kernel epoll fd.  Every
  arrival wakes *every* blocked worker (level-triggered readiness on a
  shared socket); all of them then race into ``recv``, one wins, the rest
  burned a wake-up, two syscalls, and a pair of context switches.
* :class:`WaitAnyWorkerPool` - workers block on *distinct qtokens* of the
  same Demikernel queue.  A completion wakes exactly the token's owner
  and hands it the data in the same call.

Both pools count wake-ups, useful work, and wasted work so benchmarks can
print the paper's comparison directly.
"""

from __future__ import annotations

from typing import Generator

from ..core.api import LibOS
from ..kernelos.kernel import EWOULDBLOCK, Kernel

__all__ = ["EpollWorkerPool", "WaitAnyWorkerPool"]


class EpollWorkerPool:
    """N kernel threads in an epoll_wait/recv loop on one connection."""

    def __init__(self, kernel: Kernel, n_workers: int):
        self.kernel = kernel
        self.n_workers = n_workers
        self.wakeups = 0
        self.requests_served = 0
        self.wasted_wakeups = 0
        self._stop = False
        self._procs = []

    def start(self, epfd: int, conn_fd: int) -> None:
        """Spawn the workers (call after the connection is registered)."""
        for i in range(self.n_workers):
            core = self.kernel.host.cpus[
                min(i + 1, len(self.kernel.host.cpus) - 1)]
            sys = self.kernel.thread(core)
            proc = self.kernel.sim.spawn(
                self._worker(sys, epfd, conn_fd),
                name="epoll.worker%d" % i)
            self._procs.append(proc)

    def stop(self) -> None:
        self._stop = True
        for proc in self._procs:
            if proc.alive:
                proc.interrupt("pool stopped")

    def _worker(self, sys, epfd: int, conn_fd: int) -> Generator:
        while not self._stop:
            ready = yield from sys.epoll_wait(epfd)
            if self._stop:
                break
            self.wakeups += 1
            if not ready:
                self.wasted_wakeups += 1
                continue
            # Readiness is shared: racing recv decides who actually wins.
            data = yield from sys.recv_nb(conn_fd)
            if data is EWOULDBLOCK or not data:
                self.wasted_wakeups += 1
                continue
            self.requests_served += 1
            yield from sys.send(conn_fd, data)


class WaitAnyWorkerPool:
    """N Demikernel workers each blocking on their own pop qtoken.

    A worker frees what it pops and sends no reply: on the one queue all
    of them pop, a reply would be popped again by another worker.
    """

    def __init__(self, libos: LibOS, n_workers: int):
        self.libos = libos
        self.n_workers = n_workers
        self.wakeups = 0
        self.requests_served = 0
        self.wasted_wakeups = 0
        self._stop = False
        self._procs = []

    def start(self, qd: int) -> None:
        for i in range(self.n_workers):
            proc = self.libos.sim.spawn(self._worker(qd),
                                        name="waitany.worker%d" % i)
            self._procs.append(proc)

    def stop(self) -> None:
        self._stop = True
        for proc in self._procs:
            if proc.alive:
                proc.interrupt("pool stopped")

    def _worker(self, qd: int) -> Generator:
        libos = self.libos
        while not self._stop:
            token = libos.pop(qd)
            index, result = yield from libos.wait_any([token])
            if self._stop:
                break
            self.wakeups += 1
            if result is None or result.error is not None:
                break
            # wait_any returned the data itself: no second call needed,
            # and nobody else woke for this element.
            self.requests_served += 1
            libos.sga_free(result.sga)
