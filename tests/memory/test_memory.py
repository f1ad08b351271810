"""Tests for buffers and the Demikernel memory manager."""

import pytest

from repro.hw.iommu import IommuFault
from repro.memory.buffer import Buffer, BufferError

from ..conftest import World


class TestBuffer:
    def test_write_read_roundtrip(self):
        buf = Buffer(0x1000, 64)
        buf.write(8, b"abc")
        assert buf.read(8, 3) == b"abc"

    def test_read_defaults_to_rest_of_buffer(self):
        buf = Buffer(0x1000, 8).fill(b"12345678")
        assert buf.read(4) == b"5678"

    def test_out_of_range_write_rejected(self):
        buf = Buffer(0x1000, 16)
        with pytest.raises(BufferError):
            buf.write(10, b"0123456789")

    def test_out_of_range_read_rejected(self):
        buf = Buffer(0x1000, 16)
        with pytest.raises(BufferError):
            buf.read(8, 16)

    def test_zero_capacity_rejected(self):
        with pytest.raises(BufferError):
            Buffer(0x1000, 0)

    def test_hold_release_refcount(self):
        buf = Buffer(0x1000, 16)
        buf.hold()
        buf.hold()
        buf.release()
        assert buf.in_use  # one hold left
        buf.release()
        assert not buf.in_use

    def test_release_without_hold_rejected(self):
        buf = Buffer(0x1000, 16)
        with pytest.raises(BufferError):
            buf.release()

    def test_use_after_deallocate_rejected(self):
        buf = Buffer(0x1000, 16)
        buf.deallocated = True
        with pytest.raises(BufferError):
            buf.read(0, 1)
        with pytest.raises(BufferError):
            buf.write(0, b"x")


class TestMemoryManagerAllocation:
    def test_alloc_positive_only(self, world):
        host = world.add_host("h")
        with pytest.raises(BufferError):
            host.mm.alloc(0)

    def test_alloc_returns_distinct_ranges(self, world):
        host = world.add_host("h")
        a = host.mm.alloc(100)
        b = host.mm.alloc(100)
        assert a.addr + a.capacity <= b.addr or b.addr + b.capacity <= a.addr

    def test_large_alloc_gets_its_own_region(self, world):
        host = world.add_host("h")
        big = host.mm.alloc(8 * 1024 * 1024)
        assert big.capacity == 8 * 1024 * 1024
        assert big.region.size >= big.capacity

    def test_live_accounting(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(128)
        assert host.mm.live_buffer_count == 1
        assert host.mm.live_bytes == 128
        host.mm.free(buf)
        assert host.mm.live_buffer_count == 0
        assert host.mm.live_bytes == 0

    def test_double_free_rejected(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(16)
        host.mm.free(buf)
        with pytest.raises(BufferError):
            host.mm.free(buf)

    def test_region_reclaimed_when_empty(self, world):
        host = world.add_host("h")
        a = host.mm.alloc(64)
        b = host.mm.alloc(64)
        region = a.region
        used_before = region.used
        host.mm.free(a)
        host.mm.free(b)
        assert region.used == 0
        assert used_before > 0


class TestTransparentRegistration:
    def test_new_allocations_already_registered(self, world):
        host = world.add_host("h")
        nic = world.add_dpdk(host)
        buf = host.mm.alloc(256)
        nic.iommu.translate(buf.addr, buf.capacity)  # must not fault

    def test_regions_created_later_register_with_attached_devices(self, world):
        host = world.add_host("h")
        nic = world.add_dpdk(host)
        # Force a second region.
        big = host.mm.alloc(4 * 1024 * 1024)
        nic.iommu.translate(big.addr, 64)

    def test_registration_amortized_over_buffers(self, world):
        host = world.add_host("h")
        world.add_dpdk(host)
        before = world.tracer.get("mm.region_registrations")
        for _ in range(100):
            host.mm.alloc(512)
        after = world.tracer.get("mm.region_registrations")
        assert after - before <= 1  # at most one new region registered

    def test_explicit_mode_requires_per_buffer_registration(self):
        w = World()
        host = w.add_host("h")
        host.mm.transparent = False
        nic = w.add_dpdk(host)
        buf = host.mm.alloc(64)
        with pytest.raises(IommuFault):
            nic.iommu.translate(buf.addr, 64)
        host.mm.register_buffer(buf, nic)
        nic.iommu.translate(buf.addr, 64)


class TestFreeProtection:
    def test_free_while_device_holds_defers(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        buf.hold()  # device takes a DMA reference
        host.mm.free(buf)
        assert buf.freed
        assert not buf.deallocated  # protected
        assert world.tracer.get("mm.deferred_frees") == 1
        buf.release()
        assert buf.deallocated

    def test_free_without_device_refs_is_immediate(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        host.mm.free(buf)
        assert buf.deallocated

    def test_deferred_free_keeps_data_readable_for_device(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64).fill(b"dma-payload")
        buf.hold()
        host.mm.free(buf)
        # The "device" can still read the bytes mid-DMA.
        assert buf.read(0, 11) == b"dma-payload"


class TestResolution:
    def test_resolve_finds_buffer_and_offset(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(256)
        found, offset = host.mm.resolve(buf.addr + 10, 16)
        assert found is buf
        assert offset == 10

    def test_resolve_unknown_address_faults(self, world):
        host = world.add_host("h")
        with pytest.raises(IommuFault):
            host.mm.resolve(0x1234, 4)

    def test_resolve_range_past_buffer_end_faults(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(32)
        with pytest.raises(IommuFault):
            host.mm.resolve(buf.addr + 16, 32)

    def test_read_write_mem_roundtrip(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        host.mm.write_mem(buf.addr + 4, b"onesided")
        assert host.mm.read_mem(buf.addr + 4, 8) == b"onesided"
        assert buf.read(4, 8) == b"onesided"

    def test_freed_buffer_not_resolvable(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        addr = buf.addr
        host.mm.free(buf)
        with pytest.raises(IommuFault):
            host.mm.resolve(addr, 4)


class TestWatch:
    """``mm.watch(buf)``: the queue a device write into *buf* pulses -
    how a poll-mode reader of its own memory sees a one-sided WRITE."""

    def parked(self, world, queue):
        """A process parked on *queue*; ``woken`` lists its wake times."""
        woken = []

        def reader():
            while True:
                yield queue.wait()
                woken.append(world.sim.now)

        world.sim.spawn(reader())
        world.run()
        return woken

    def test_write_mem_pulses_the_watched_buffer_only(self, world):
        host = world.add_host("h")
        watched, other = host.mm.alloc(64), host.mm.alloc(64)
        woken = self.parked(world, host.mm.watch(watched))
        host.mm.write_mem(other.addr, b"elsewhere")
        assert woken == []
        world.sim.call_in(500, host.mm.write_mem, watched.addr + 8, b"here")
        world.run()
        assert woken == [500]
        assert other.written is None

    def test_the_reader_is_woken_after_the_bytes_are_in_place(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(16)
        seen = []
        host.mm.watch(buf).subscribe(lambda: seen.append(buf.read(0, 4)))
        host.mm.write_mem(buf.addr, b"data")
        assert seen == [b"data"]

    def test_a_cpu_store_pulses_nothing(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        queue = host.mm.watch(buf)
        woken = self.parked(world, queue)
        pulsed = []
        queue.subscribe(lambda: pulsed.append(world.sim.now))
        buf.write(0, b"my own store")
        buf.fill(b"another")
        world.run()
        assert woken == [] and pulsed == []

    def test_an_unwatched_buffer_allocates_no_queue(self, world):
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        host.mm.write_mem(buf.addr, b"nobody is looking")
        assert buf.written is None
        queue = host.mm.watch(buf)
        assert host.mm.watch(buf) is queue is buf.written  # one per buffer

    def test_a_freed_buffers_queue_is_gone_with_it(self, world):
        import gc
        import weakref
        host = world.add_host("h")
        buf = host.mm.alloc(64)
        addr = buf.addr
        gone = weakref.ref(host.mm.watch(buf))
        host.mm.free(buf)
        del buf
        gc.collect()
        # It lived on the buffer alone: no table in the manager held it.
        assert gone() is None
        # The memory's next owner starts unwatched, and a write to the
        # freed range faults before anything could be pulsed.
        again = host.mm.alloc(64)
        assert again.addr == addr and again.written is None
        host.mm.free(again)
        with pytest.raises(IommuFault):
            host.mm.write_mem(addr, b"late")
