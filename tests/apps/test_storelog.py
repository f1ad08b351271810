"""Tests for the log-writer storage workload on both stacks."""

import pytest

from repro.apps.storelog import demi_log_writer, posix_log_writer
from repro.core.types import DemiError
from repro.libos.spdk_libos import SpdkLibOS
from repro.storage.log import RECORD_HEADER_LEN
from repro.testbed import World, make_spdk_libos, make_vfs_kernel

RECORDS = [b"record-%04d-" % i + b"x" * 500 for i in range(32)]


class TestDemiLogWriter:
    def test_writes_and_reads_back(self):
        w, libos = make_spdk_libos()
        p = w.sim.spawn(demi_log_writer(libos, RECORDS, sync_every=8))
        w.run()
        stats, readback = p.value
        assert readback == RECORDS
        assert stats.count == 4  # 32 records / 8 per sync

    def test_the_heap_ends_as_it_started(self):
        """It frees every element it pushes and pops and closes both
        queues: a kept pop would pin the whole read span it lives in."""
        w, libos = make_spdk_libos()
        start = libos.mm.live_buffer_count
        p = w.sim.spawn(demi_log_writer(libos, RECORDS, sync_every=8))
        w.run()
        assert p.value[1] == RECORDS
        assert libos.mm.live_buffer_count == start

    def test_a_failed_append_raises_instead_of_hanging(self):
        # One 4 KiB block holds one of three 2 KiB records ("log full"):
        # the read-back would wait for ever on records never appended.
        w = World()
        host = w.add_host("h")
        nvme = w.add_nvme(host)
        nvme.capacity_blocks = 1
        libos = SpdkLibOS(host, nvme, name="h.catfish")
        p = w.sim.spawn(demi_log_writer(libos, [b"x" * 2048] * 3))
        with pytest.raises(DemiError, match="append failed: log full"):
            w.sim.run_until_complete(p, limit=10**12)

    def test_a_failed_read_raises(self):
        # Flash loses the first record's payload once the fsync lands:
        # its read-back fails the checksum, and the pop carries no sga.
        w, libos = make_spdk_libos()
        nvme = libos.nvme

        def corrupt_once_flushed():
            while not w.tracer.get("h.nvme0.flushes"):
                yield w.sim.timeout(1_000)
            block = bytearray(nvme.peek_block(0))
            block[RECORD_HEADER_LEN] ^= 0xFF
            nvme._blocks[0] = bytes(block)

        w.sim.spawn(corrupt_once_flushed())
        p = w.sim.spawn(demi_log_writer(libos, RECORDS[:8]))
        with pytest.raises(DemiError, match="read failed: checksum"):
            w.sim.run_until_complete(p, limit=10**12)

    def test_no_kernel_involvement(self):
        w, libos = make_spdk_libos()
        p = w.sim.spawn(demi_log_writer(libos, RECORDS[:8]))
        w.run()
        assert all("kernel" not in key for key in w.tracer.counters)


class TestPosixLogWriter:
    def test_writes_and_reads_back(self):
        w, kernel = make_vfs_kernel()
        p = w.sim.spawn(posix_log_writer(kernel, RECORDS, sync_every=8))
        w.run()
        stats, readback = p.value
        assert readback == RECORDS
        assert stats.count == 4

    def test_pays_syscalls_and_copies(self):
        w, kernel = make_vfs_kernel()
        p = w.sim.spawn(posix_log_writer(kernel, RECORDS[:8]))
        w.run()
        assert w.tracer.get("h.kernel.syscalls") > 8
        total = sum(len(r) for r in RECORDS[:8])
        assert w.tracer.get("h.kernel.bytes_copied_tx") == total


class TestStorShape:
    def test_demikernel_storage_path_is_faster(self):
        """The STOR experiment's expected shape."""
        w1, libos = make_spdk_libos()
        p1 = w1.sim.spawn(demi_log_writer(libos, RECORDS, sync_every=4))
        w1.run()
        demi_batch = p1.value[0].mean

        w2, kernel = make_vfs_kernel()
        p2 = w2.sim.spawn(posix_log_writer(kernel, RECORDS, sync_every=4))
        w2.run()
        posix_batch = p2.value[0].mean

        # Flash time dominates both, but the kernel adds block-layer and
        # syscall overhead per operation: strictly slower.
        assert posix_batch > demi_batch
