#!/usr/bin/env python3
"""Storage through file queues (section 5.3) + crash recovery.

Appends records to a Demikernel file queue on the SPDK libOS, fsyncs,
"crashes" (builds a fresh libOS over the same simulated NVMe device),
and recovers the log - then runs the same workload through the kernel
VFS and compares the software taxes.

Run:  python examples/storage_log.py
"""

from repro.apps.storelog import posix_log_writer
from repro.bench.report import print_table, us
from repro.libos.spdk_libos import SpdkLibOS
from repro.testbed import make_spdk_libos, make_vfs_kernel

RECORDS = [b"event-%03d:" % i + b"d" * 200 for i in range(20)]


def spdk_path():
    world, libos = make_spdk_libos()

    def writer():
        qd = yield from libos.creat("/events")
        for record in RECORDS:
            yield from libos.blocking_push(qd, libos.sga_alloc(record))
        flushed = yield from libos.fsync(qd)
        return flushed

    p = world.sim.spawn(writer())
    world.sim.run_until_complete(p, limit=10**14)
    print("SPDK libOS: appended %d records, fsync flushed %d bytes"
          % (len(RECORDS), p.value))

    # Crash: a brand-new libOS over the same device must recover the log.
    recovered_libos = SpdkLibOS(libos.host, libos.nvme, name="h.catfish2")

    def recover():
        n = yield from recovered_libos.mount()
        qd = yield from recovered_libos.open("/recovered")
        first = yield from recovered_libos.blocking_pop(qd)
        data = first.sga.tobytes()
        recovered_libos.sga_free(first.sga)   # a pop is lent: free it
        return n, data

    p = world.sim.spawn(recover())
    world.sim.run_until_complete(p, limit=10**14)
    n, first = p.value
    print("after crash: mount() recovered %d records; first = %r"
          % (n, first[:20]))
    assert n == len(RECORDS)
    return world


def vfs_path():
    world, kernel = make_vfs_kernel()
    p = world.sim.spawn(posix_log_writer(kernel, RECORDS, sync_every=20))
    world.sim.run_until_complete(p, limit=10**14)
    return world


if __name__ == "__main__":
    spdk_world = spdk_path()
    vfs_world = vfs_path()
    print_table(
        "software taxes for the same %d-record workload" % len(RECORDS),
        ["stack", "syscalls", "bytes copied", "host CPU"],
        [
            ("SPDK libOS",
             spdk_world.tracer.get("h.kernel.syscalls"),
             spdk_world.tracer.get("h.kernel.bytes_copied_tx"),
             us(spdk_world.hosts["h"].cpus.total_busy_ns())),
            ("kernel VFS",
             vfs_world.tracer.get("h.kernel.syscalls"),
             vfs_world.tracer.get("h.kernel.bytes_copied_tx"),
             us(vfs_world.hosts["h"].cpus.total_busy_ns())),
        ],
    )
