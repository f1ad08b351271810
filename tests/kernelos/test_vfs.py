"""Tests for the kernel VFS (files, page cache, fsync)."""

import pytest

from repro.kernelos.kernel import KernelError
from repro.testbed import make_vfs_kernel


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestVfs:
    def test_create_write_read_roundtrip(self):
        w, kernel = make_vfs_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/data/log")
            yield from sys.write(fd, b"persistent bytes")
            yield from sys.lseek(fd, 0)
            return (yield from sys.read(fd, 100))

        assert run(w, proc()) == b"persistent bytes"

    def test_create_duplicate_raises(self):
        w, kernel = make_vfs_kernel()

        def proc():
            sys = kernel.thread()
            yield from sys.creat("/x")
            with pytest.raises(KernelError):
                yield from sys.creat("/x")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_write_is_cached_until_fsync(self):
        w, kernel = make_vfs_kernel()
        nvme = kernel.host.nvme

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"d" * 8192)
            assert nvme.tracer.get("h.nvme0.writes") == 0
            flushed = yield from sys.fsync(fd)
            return flushed

        assert run(w, proc()) == 2
        assert nvme.tracer.get("h.nvme0.writes") == 2
        assert nvme.counters.flushes == 1

    def test_data_durable_on_device_after_fsync(self):
        w, kernel = make_vfs_kernel()
        vfs, nvme = kernel.vfs, kernel.host.nvme

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"A" * 4096)
            yield from sys.fsync(fd)

        run(w, proc())
        lba = vfs._files["/f"].blocks[0]
        assert nvme.peek_block(lba) == b"A" * 4096

    def test_reread_after_cache_drop_hits_device(self):
        w, kernel = make_vfs_kernel()
        vfs, nvme = kernel.vfs, kernel.host.nvme

        def write_phase():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"B" * 4096)
            yield from sys.fsync(fd)
            return fd

        fd = run(w, write_phase())
        vfs._cache.clear()  # simulate memory pressure eviction

        def read_phase():
            sys = kernel.thread()
            yield from sys.lseek(fd, 0)
            return (yield from sys.read(fd, 4096))

        assert run(w, read_phase()) == b"B" * 4096
        assert w.tracer.get("h.kernel.page_cache_misses") >= 1
        assert nvme.tracer.get("h.nvme0.reads") >= 1

    def test_read_past_eof_returns_empty(self):
        w, kernel = make_vfs_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"abc")
            return (yield from sys.read(fd, 10))

        assert run(w, proc()) == b""

    def test_unaligned_write_spanning_blocks(self):
        w, kernel = make_vfs_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.lseek(fd, 4090)
            yield from sys.write(fd, b"0123456789")
            yield from sys.lseek(fd, 4090)
            return (yield from sys.read(fd, 10))

        assert run(w, proc()) == b"0123456789"

    def test_file_io_charges_copies_and_syscalls(self):
        w, kernel = make_vfs_kernel()

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"z" * 4096)

        run(w, proc())
        assert w.tracer.get("h.kernel.bytes_copied_tx") == 4096
        assert w.tracer.get("h.kernel.syscalls") == 2
