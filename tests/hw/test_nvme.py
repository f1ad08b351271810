"""Tests for the simulated NVMe device."""

import pytest

from repro.hw.nvme import NvmeDevice, NvmeError
from repro.sim.engine import Simulator
from repro.sim.host import Host


def make_device(**kw):
    sim = Simulator()
    host = Host(sim, "h0")
    dev = NvmeDevice(host, **kw)
    return sim, dev


def run(sim, gen):
    p = sim.spawn(gen)
    sim.run()
    return p.value


def test_write_then_read_roundtrip():
    sim, dev = make_device()
    payload = b"A" * dev.block_size

    def proc():
        yield dev.submit_write(10, payload)
        data = yield dev.submit_read(10, 1)
        return data

    assert run(sim, proc()) == payload


def test_unwritten_blocks_read_zero():
    sim, dev = make_device()

    def proc():
        data = yield dev.submit_read(5, 2)
        return data

    assert run(sim, proc()) == b"\x00" * (2 * dev.block_size)


def test_multiblock_write_spans_blocks():
    sim, dev = make_device()
    payload = bytes(range(256)) * 32  # 8192 = 2 blocks

    def proc():
        yield dev.submit_write(0, payload)
        data = yield dev.submit_read(0, 2)
        return data

    assert run(sim, proc()) == payload
    assert dev.peek_block(1) == payload[dev.block_size:]


def test_partial_block_write_rejected():
    _, dev = make_device()
    with pytest.raises(NvmeError):
        dev.submit_write(0, b"short")


def test_out_of_range_rejected():
    _, dev = make_device(capacity_blocks=16)
    with pytest.raises(NvmeError):
        dev.submit_read(15, 2)
    with pytest.raises(NvmeError):
        dev.submit_read(-1, 1)
    with pytest.raises(NvmeError):
        dev.submit_read(0, 0)


def test_read_latency_matches_cost_model():
    sim, dev = make_device()

    def proc():
        yield dev.submit_read(0, 1)
        return sim.now

    when = run(sim, proc())
    assert when == dev.costs.nvme_io_ns(dev.block_size, write=False)


def test_write_faster_than_read():
    sim, dev = make_device()
    times = {}

    def writer():
        yield dev.submit_write(0, b"w" * dev.block_size)
        times["w"] = sim.now

    sim.spawn(writer())
    sim.run()

    sim2, dev2 = make_device()

    def reader():
        yield dev2.submit_read(0, 1)
        times["r"] = sim2.now

    sim2.spawn(reader())
    sim2.run()
    assert times["w"] < times["r"]


def test_channels_give_parallelism():
    sim1, dev1 = make_device(channels=1)
    done1 = []

    def io(dev, done):
        def proc():
            yield dev.submit_read(0, 1)
            done.append(dev.sim.now)
        return proc()

    sim1.spawn(io(dev1, done1))
    sim1.spawn(io(dev1, done1))
    sim1.run()
    assert done1[1] == 2 * done1[0]  # serialized on one channel

    sim8, dev8 = make_device(channels=8)
    done8 = []
    sim8.spawn(io(dev8, done8))
    sim8.spawn(io(dev8, done8))
    sim8.run()
    assert done8[0] == done8[1]  # parallel channels


def test_flush_counts_and_delays():
    sim, dev = make_device()

    def proc():
        yield dev.submit_flush()
        return sim.now

    when = run(sim, proc())
    assert when == dev.costs.nvme_flush_ns
    assert dev.counters.flushes == 1


def test_bad_geometry_rejected():
    sim = Simulator()
    host = Host(sim, "h0")
    with pytest.raises(NvmeError):
        NvmeDevice(host, capacity_blocks=0)


def test_counters_track_bytes():
    sim, dev = make_device()

    def proc():
        yield dev.submit_write(0, b"x" * dev.block_size)
        yield dev.submit_read(0, 1)

    run(sim, proc())
    assert dev.tracer.get("nvme0.write_bytes") == dev.block_size
    assert dev.tracer.get("nvme0.read_bytes") == dev.block_size
