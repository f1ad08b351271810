"""The gate on read amplification: flash bytes moved per log byte read.

``storelog-spdk-append-scan`` in miniature, through the public testbed:
256-byte records appended to a file queue, an fsync about every 64, then
every record popped back in order.  A sequential reader needs each
flushed block across PCIe once; before PR 24 the log store fetched a
whole block per record and threw it away, 15 times per block at this
record size (``hw.nvme.bytes_per_op`` 1 654 where 289 do the work).  And
it needs about one command per bandwidth-delay product of the device,
not one per block: each command pays the flash's fixed latency once.
And it waits on the device once: every window after the first is read
ahead while the reader works through the one before it, so it has
landed when the reader gets there.
The counts below are deterministic, so a change that re-introduces
per-record or per-block reads, or a synchronous read per window, fails
here under its own name, not as a slower benchmark.
"""

from itertools import cycle

from repro.storage.log import RECORD_HEADER_LEN
from repro.testbed import make_spdk_libos

#: enough for more flushed blocks than one read-ahead brings in
N_RECORDS = 1200
RECORD_SIZE = 256
#: appends between two fsyncs: "about every 64", and never a whole number
#: of blocks, so every flush but the first rewrites a partial head block
FSYNC_BATCHES = (48, 64, 80)


def _append_then_pop_back(libos, records):
    qd = yield from libos.creat("/gate")
    batches = cycle(FSYNC_BATCHES)
    left = next(batches)
    for record in records:
        result = yield from libos.blocking_push(qd, libos.sga_alloc(record))
        assert result.error is None
        left -= 1
        if not left:
            yield from libos.fsync(qd)
            left = next(batches)
    yield from libos.fsync(qd)
    read_qd = yield from libos.open("/gate")
    out = []
    for _ in records:
        result = yield from libos.blocking_pop(read_qd)
        assert result.error is None
        out.append(result.sga.tobytes())
    return out


def test_sequential_pop_back_moves_each_flushed_block_once():
    world, libos = make_spdk_libos()
    records = [b"%04d" % i + bytes([i % 251]) * (RECORD_SIZE - 4)
               for i in range(N_RECORDS)]
    proc = world.sim.spawn(_append_then_pop_back(libos, records))
    world.run()
    assert proc.value == records

    nvme, block = libos.nvme, libos.nvme.block_size
    flushed = N_RECORDS * (RECORD_HEADER_LEN + RECORD_SIZE)
    assert libos.store.tail == flushed and not libos.store._buffer
    blocks = -(-flushed // block)
    on_disk = RECORD_HEADER_LEN + RECORD_SIZE
    straddlers = sum(1 for i in range(N_RECORDS)
                     if i * on_disk // block != ((i + 1) * on_disk - 1) // block)

    get = world.tracer.get
    assert get("%s.read_bytes" % nvme.name) <= 1.05 * blocks * block
    assert get("%s.reads" % nvme.name) <= blocks + straddlers
    # Each command brings in the blocks whose transfer takes one command's
    # fixed latency, less the block it may share with the span before it.
    costs = libos.costs
    depth = int(costs.nvme_read_ns // (block * costs.nvme_ns_per_byte))
    assert blocks > depth
    assert get("%s.reads" % nvme.name) <= -(-blocks // (depth - 1))
    # The layer table's explanation of the same row: one read waited on
    # the device, the first; every other command was a read-ahead, and
    # the read that reached it found its blocks landed.
    hits, ahead_hits, misses = (get("%s.%s" % (nvme.name, leaf)) for leaf in (
        "read_span_hits", "read_ahead_hits", "read_span_misses"))
    assert hits + ahead_hits + misses == N_RECORDS
    assert misses == 1
    assert ahead_hits == get("%s.reads" % nvme.name) - 1 >= 1
