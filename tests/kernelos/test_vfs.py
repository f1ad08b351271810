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

    def test_fsync_returns_after_the_last_write_lands_in_any_order(
            self, monkeypatch):
        # The three writes fsync submits land third, first, second: it
        # barriers the device and returns only after the middle one, the
        # last to land, not after the first or the last it submitted.
        w, kernel = make_vfs_kernel()
        nvme = kernel.host.nvme
        submit_write, submit_flush = nvme.submit_write, nvme.submit_flush
        holds = (200_000, 300_000, 100_000)
        submitted, landed, flushed = [], [], []

        def held(index, done, late):
            value = yield done
            yield w.sim.timeout(holds[index])
            landed.append((index, w.sim.now))
            late.trigger(value)

        def late_write(lba, data):
            late = w.sim.completion("late write")
            w.sim.spawn(held(len(submitted), submit_write(lba, data), late))
            submitted.append(late)
            return late

        def flush():
            flushed.append(w.sim.now)
            return submit_flush()

        monkeypatch.setattr(nvme, "submit_write", late_write)
        monkeypatch.setattr(nvme, "submit_flush", flush)

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/f")
            yield from sys.write(fd, b"w" * 3 * 4096)
            return (yield from sys.fsync(fd))

        assert run(w, proc()) == 3
        assert [index for index, _at in landed] == [2, 0, 1]
        assert flushed == [landed[-1][1]]

    def test_fsync_with_nothing_dirty_only_barriers_the_device(
            self, monkeypatch):
        # No write is pending: fsync submits none, waits on none, and
        # still barriers the device once before it returns.
        w, kernel = make_vfs_kernel()
        nvme = kernel.host.nvme
        submit_flush = nvme.submit_flush
        writes, flushed = [], []

        def flush():
            flushed.append(w.sim.now)
            return submit_flush()

        monkeypatch.setattr(nvme, "submit_write",
                            lambda lba, data: writes.append(lba))
        monkeypatch.setattr(nvme, "submit_flush", flush)

        def proc():
            sys = kernel.thread()
            fd = yield from sys.creat("/empty")
            return (yield from sys.fsync(fd))

        assert run(w, proc()) == 0
        assert writes == []
        assert len(flushed) == 1
        assert kernel.counters.fsyncs == 1
