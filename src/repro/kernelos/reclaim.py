"""Kernel-side resource reclamation for crashed kernel-bypass processes.

The paper's Figure-1 kernel keeps one responsibility even in a bypass
world: when a process dies, *something* trusted must claw back every
resource the fast path handed out - qtokens, queue descriptors, live TCP
connections (the peer deserves an RST, not an RTO hang), queue pairs,
in-flight NVMe commands, NIC rings, IOMMU mappings, and registered
memory.  This module is that teardown path.

Ordering is load-bearing:

1. the application process is interrupted - no user code may resume;
2. the qtoken table is reaped - no completion can ever wake a dead
   waiter, and late device completions drop harmlessly;
3. each queue descriptor closes and the queue severs its own protocol
   and device state underneath (RST/QP destroy/port unbind) and reaps
   its pump processes (:meth:`DemiQueue.crash_abort
   <repro.core.queue.DemiQueue.crash_abort>` - every queue kind has one);
4. libOS-wide background machinery (poll-mode drivers) stops;
5. the kernel's own fd table is walked (the POSIX fallback path);
6. devices abort in-flight commands and drain their rings;
7. every registered buffer is freed - free-protection defers the ones a
   device is still DMA-ing, which resolve during the quiesce, after
   which the (now empty) regions are unmapped from every IOMMU.

The end state is the crash-reclaim invariant the chaos scenarios assert:
``holdings(host, liboses)`` is all zero.
"""

from __future__ import annotations

from typing import Dict, Generator, Sequence

from ..telemetry import names
from .kernel import Kernel

__all__ = ["crash_teardown", "holdings"]

#: how often the quiesce loop re-checks for deferred frees resolving
QUIESCE_POLL_NS = 100_000
#: give in-flight DMA this long to drop its last buffer references
QUIESCE_LIMIT_NS = 50_000_000


def reclaim_process(libos, app_proc=None) -> None:
    """Synchronously tear down a dead process's resources (steps 1-7
    above, minus the quiesce).  *libos* is what the process ran on: a
    libOS, or a :class:`Kernel` for a process that only made syscalls
    (steps 2-4 then have nothing to reclaim; its fds close in step 5).
    *app_proc* is the application's sim process, interrupted first if
    still alive.  What it recovers is counted on the host's
    ``<host>.reclaim.*`` counters; call :func:`crash_teardown` instead
    when the final region unmap matters (it almost always does).
    """
    host = libos.host
    counters = host.tracer.scope(host.name).scope(names.RECLAIM)
    counters.runs += 1

    if app_proc is not None and app_proc.alive:
        app_proc.interrupt("proc_crash")

    if not isinstance(libos, Kernel):  # a process on the kernel has only fds
        cancelled, retired = libos.qtokens.reap_all()
        if cancelled:
            counters.qtokens_cancelled += cancelled
        if retired:
            counters.qtokens_retired += retired

        for qd in sorted(libos._queues):
            queue = libos._queues[qd]
            queue.close()
            queue.crash_abort(counters)
            libos._queues.pop(qd, None)
            counters.qds_closed += 1

        for proc in libos.crash_background_procs():
            if proc is not None and proc.alive:
                proc.interrupt("proc_crash")

    if host.kernel is not None:
        host.kernel.reclaim_fds(counters)

    nvme = getattr(libos, "nvme", None)
    if nvme is not None:
        aborted = nvme.abort_all(reason="owner crashed")
        if aborted:
            counters.nvme_aborts += aborted
    for nic in host.nics:
        nic.drain_rx()
        counters.rings_drained += 1

    freed = host.mm.free_all()
    if freed:
        counters.buffers_freed += freed


def crash_teardown(libos, app_proc=None) -> Generator:
    """Sim-coroutine: full teardown - reclaim, quiesce DMA, unmap regions.

    After :func:`reclaim_process`, buffers a device was still DMA-ing
    sit in deferred-free limbo until the device drops its last
    reference; this waits (bounded by ``QUIESCE_LIMIT_NS``) for the heap
    to empty, then releases every region - the step that actually
    returns the IOMMU to zero mapped ranges.
    """
    host = libos.host
    counters = host.tracer.scope(host.name).scope(names.RECLAIM)
    reclaim_process(libos, app_proc)
    deadline = host.sim.now + QUIESCE_LIMIT_NS
    while host.mm.live_buffer_count and host.sim.now < deadline:
        yield host.sim.timeout(QUIESCE_POLL_NS)
    released = host.mm.reclaim_regions()
    if released:
        counters.regions_unmapped += released


def holdings(host, liboses: Sequence) -> Dict[str, int]:
    """What *host* still owns, and its *liboses* with it: the one record
    every "owns nothing" check reads.  Each field is a count the tree
    already keeps; the host's part covers every process on it."""
    return {
        "live_buffers": host.mm.live_buffer_count,
        "registered_bytes": host.mm.registered_bytes(),
        "iommu_ranges": sum(nic.iommu.mapped_ranges for nic in host.nics),
        "kernel_fds": 0 if host.kernel is None else len(host.kernel._fds),
        "nvme_in_flight": (0 if host.nvme is None
                           else host.nvme.inflight_commands),
        "open_qds": sum(len(libos._queues) for libos in liboses),
        "qtokens_in_flight": sum(libos.qtokens.in_flight
                                 for libos in liboses),
    }
