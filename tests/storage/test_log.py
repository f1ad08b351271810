"""Tests for the log-structured record store."""

import pytest

from repro.core.types import DeviceFailed
from repro.hw.nvme import NvmeDevice
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.faults import FaultPlan
from repro.storage.log import RECORD_HEADER_LEN, LogError, LogStore

from ..conftest import World


def make_store(plan=None, costs=DEFAULT_COSTS, capacity_blocks=None):
    w = World(costs)
    host = w.add_host("h")
    nvme = host.nvme = NvmeDevice(host, name="h.nvme0")
    if capacity_blocks is not None:
        nvme.capacity_blocks = capacity_blocks
    if plan is not None:
        w.install_faults(plan)
    store = LogStore(nvme, host.cpu)
    return w, store, nvme


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestAppendRead:
    def test_append_then_read_from_buffer(self):
        w, store, _ = make_store()

        def proc():
            rid = yield from store.append(b"record-one")
            data = (yield from store.read(rid)).tobytes()
            return rid, data

        rid, data = run(w, proc())
        assert rid == 0
        assert data == b"record-one"

    def test_read_after_sync_hits_device(self):
        w, store, nvme = make_store()

        def proc():
            rid = yield from store.append(b"durable-record")
            yield from store.sync()
            data = (yield from store.read(rid)).tobytes()
            return data

        assert run(w, proc()) == b"durable-record"
        assert nvme.tracer.get("h.nvme0.writes") >= 1
        assert nvme.tracer.get("h.nvme0.reads") >= 1

    def test_record_ids_are_byte_offsets(self):
        w, store, _ = make_store()

        def proc():
            r1 = yield from store.append(b"aaaa")
            r2 = yield from store.append(b"bb")
            return r1, r2

        r1, r2 = run(w, proc())
        assert r1 == 0
        assert r2 == 12 + 4  # header + payload of the first record

    def test_large_record_spans_blocks(self):
        w, store, _ = make_store()
        payload = bytes(range(256)) * 40  # 10240 bytes

        def proc():
            rid = yield from store.append(payload)
            yield from store.sync()
            return (yield from store.read(rid)).tobytes()

        assert run(w, proc()) == payload

    def test_empty_record_rejected(self):
        w, store, _ = make_store()

        def proc():
            with pytest.raises(LogError):
                yield from store.append(b"")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_bad_record_id_rejected(self):
        w, store, _ = make_store()

        def proc():
            yield from store.append(b"x")
            with pytest.raises(LogError):
                yield from store.read(99999)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_log_full_rejected(self):
        w, store, _ = make_store(capacity_blocks=1)

        def proc():
            yield from store.append(b"y" * 2000)
            with pytest.raises(LogError):
                yield from store.append(b"y" * 3000)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_multiple_syncs_with_partial_blocks(self):
        """A sync mid-block must not corrupt earlier records."""
        w, store, _ = make_store()

        def proc():
            r1 = yield from store.append(b"first")
            yield from store.sync()
            r2 = yield from store.append(b"second")
            yield from store.sync()
            d1 = (yield from store.read(r1)).tobytes()
            d2 = (yield from store.read(r2)).tobytes()
            return d1, d2

        assert run(w, proc()) == (b"first", b"second")


def device_reads(nvme):
    """(commands, blocks) the device has read so far."""
    return (nvme.tracer.get("h.nvme0.reads"),
            nvme.tracer.get("h.nvme0.read_bytes") // nvme.block_size)


def sized(fill, record_bytes):
    """A payload whose record (header included) is *record_bytes* long."""
    return bytes([fill]) * (record_bytes - RECORD_HEADER_LEN)


def straddling_payloads(bs):
    """a: block 0.  b: blocks 0-1.  c: block 1.  d: blocks 1-3."""
    return [sized(1, 3000), sized(2, 2000), sized(3, 1000),
            sized(4, 2 * bs + 1000)]


def read_costs(w, store, nvme, payloads, order, work_ns=0):
    """Append and sync *payloads*, then read them back in *order*,
    spending *work_ns* on each: the payloads read and the (commands,
    blocks) each read cost."""
    costs = []

    def proc():
        ids = []
        for payload in payloads:
            ids.append((yield from store.append(payload)))
        yield from store.sync()
        out = []
        for i in order:
            before = device_reads(nvme)
            out.append((yield from store.read(ids[i])).tobytes())
            after = device_reads(nvme)
            costs.append((after[0] - before[0], after[1] - before[1]))
            if work_ns:
                yield w.sim.timeout(work_ns)
        return out

    return run(w, proc()), costs


class TestReadSpan:
    """A read keeps the blocks it brought in; the records that share them
    cost no command, and the span is gone whenever it could lie."""

    def test_records_sharing_a_block_cost_one_read(self):
        w, store, nvme = make_store()
        payloads = [b"record-%02d" % i for i in range(40)]
        cpu = {}

        def proc():
            ids = []
            for payload in payloads:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            cpu["before"] = store.core.busy_ns
            out = []
            for rid in ids:
                out.append((yield from store.read(rid)).tobytes())
            cpu["reads"] = store.core.busy_ns - cpu["before"]
            return out

        assert run(w, proc()) == payloads
        assert device_reads(nvme) == (1, 1)
        assert nvme.tracer.get("h.nvme0.read_span_misses") == 1
        assert nvme.tracer.get("h.nvme0.read_span_hits") == 39
        # One submission and the allocation its blocks land in, then the
        # write buffer's charge per record.
        submit = store.costs.spdk_submit_ns
        assert cpu["reads"] == (submit + store.costs.malloc_ns
                                + 39 * (submit // 4))

    def test_straddling_records_cost_one_read_ahead(self):
        w, store, nvme = make_store()
        payloads = straddling_payloads(nvme.block_size)
        out, costs = read_costs(w, store, nvme, payloads, order=range(4))
        assert out == payloads
        assert costs == [(1, 4),   # blocks 0-3, all that is flushed
                         (0, 0),   # all in blocks 0-1
                         (0, 0),   # all in block 1
                         (0, 0)]   # all in blocks 1-3

    def test_a_read_behind_the_span_reads_from_its_own_block(self):
        w, store, nvme = make_store()
        payloads = straddling_payloads(nvme.block_size)
        out, costs = read_costs(w, store, nvme, payloads,
                                order=[3, 2, 1, 0])
        assert out == payloads[::-1]
        assert costs == [(1, 3),   # blocks 1-3, from d's first block
                         (0, 0),   # all in block 1
                         (1, 4),   # block 0 is behind the span: 0-3
                         (0, 0)]   # all in block 0

    def test_header_straddling_a_block_boundary(self):
        w, store, nvme = make_store()
        payloads = [sized(1, nvme.block_size - 5), sized(2, 500)]

        def proc():
            ids = []
            for payload in payloads:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            cold = (yield from store.read(ids[1])).tobytes()   # header: blocks 0-1
            warm = (yield from store.read(ids[0])).tobytes()
            return cold, warm

        assert run(w, proc()) == (payloads[1], payloads[0])
        assert device_reads(nvme) == (1, 2)

    def test_reads_after_a_sync_see_the_records_it_flushed(self):
        """The stale-span case: a span kept across sync() would serve
        the new records of the tail block as the zero padding it read."""
        w, store, nvme = make_store()

        def proc():
            first = yield from store.append(b"first")
            yield from store.sync()
            out = [(yield from store.read(first)).tobytes()]   # span: the tail block
            second = yield from store.append(b"second")
            third = yield from store.append(b"third")
            yield from store.sync()
            for rid in (second, third, first):
                out.append((yield from store.read(rid)).tobytes())
            return out

        assert run(w, proc()) == [b"first", b"second", b"third", b"first"]
        assert device_reads(nvme) == (2, 2)

    def test_read_in_flight_across_a_sync_installs_nothing(self):
        """A read submitted before sync()'s write and completed after it
        holds the tail block as it was."""
        w, store, nvme = make_store()
        ids = {}

        def writer():
            ids["second"] = yield from store.append(b"second")
            yield from store.sync()

        def proc():
            ids["first"] = yield from store.append(b"first")
            yield from store.sync()
            reader = w.sim.spawn(store.read(ids["first"]))
            flusher = w.sim.spawn(writer())
            yield reader
            yield flusher
            return (reader.value.tobytes(),
                    (yield from store.read(ids["second"])).tobytes())

        assert run(w, proc()) == (b"first", b"second")

    def test_corrupt_record_drops_the_span_so_a_retry_rereads_flash(self):
        w, store, nvme = make_store()

        def proc():
            rid = yield from store.append(b"precious")
            yield from store.sync()
            good = nvme.peek_block(0)
            block = bytearray(good)
            block[RECORD_HEADER_LEN] ^= 0xFF
            nvme._blocks[0] = bytes(block)
            with pytest.raises(LogError, match="checksum"):
                yield from store.read(rid)
            nvme._blocks[0] = good   # the device repaired it (a scrub)
            return (yield from store.read(rid)).tobytes()

        assert run(w, proc()) == b"precious"
        assert device_reads(nvme) == (2, 2)

    def test_failed_read_leaves_the_span_and_the_next_read_correct(self):
        # 3 timed-out attempts, a controller reset and a last attempt fit
        # inside the window twice over: once for b's read and once for
        # the read-ahead the hit after it submits.  The reads after it
        # see a healthy device.
        plan = FaultPlan(seed=5).nvme_ctrl_fail("h.nvme0", 1_000_000,
                                                9_000_000)
        w, store, nvme = make_store(plan)
        depth = store._ahead_blocks
        # b ends one block past what a read-ahead from block 0 brings in.
        payloads = [sized(1, 3000), sized(2, depth * nvme.block_size),
                    sized(3, 1000)]

        def proc():
            ids = []
            for payload in payloads:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            out = [(yield from store.read(ids[0])).tobytes()]   # span: blocks 0-67
            assert store._read_span[0] == 0
            assert store._read_span[1].capacity == depth * nvme.block_size
            yield w.sim.timeout(1_000_000 - w.sim.now)
            with pytest.raises(DeviceFailed):
                yield from store.read(ids[1])         # block 68 never comes
            before = device_reads(nvme)
            out.append((yield from store.read(ids[0])).tobytes())   # still 0-67
            # The hit read ahead: block 68, which fails in its turn.
            assert device_reads(nvme) == (before[0] + 1, before[1] + 1)
            yield w.sim.timeout(9_000_000 - w.sim.now)
            assert nvme.tracer.get("h.nvme0.device_failures") == 2
            # The failed read-ahead is forgotten, not handed to b: its
            # read goes back to flash and succeeds.
            for rid in ids[1:]:
                out.append((yield from store.read(rid)).tobytes())
            return out

        assert run(w, proc()) == [payloads[0], payloads[0], payloads[1],
                                  payloads[2]]
        assert nvme.tracer.get("h.nvme0.device_failures") == 2
        assert nvme.tracer.get("h.nvme0.read_ahead_hits") == 0


#: blocks per read-ahead with the default costs
DEFAULT_DEPTH = 68


def block_records(n, bs, fill=0):
    """*n* payloads whose records are one block each: record i is block i
    of what they are appended after."""
    return [sized((fill + i) % 256, bs) for i in range(n)]


class TestReadAhead:
    """A miss reads ahead one bandwidth-delay product, from the record's
    first block and never past the flushed tail."""

    def test_depth_is_the_device_bandwidth_delay_product(self):
        for per_byte, depth in ((0.25, 68), (0.5, 34), (0.0, 16)):
            costs = DEFAULT_COSTS.with_overrides(nvme_ns_per_byte=per_byte)
            w, store, nvme = make_store(costs=costs, capacity_blocks=16)
            assert store._ahead_blocks == depth
            # The depth is a read that at most doubles a command's time
            # (and the whole range when transfer costs nothing).
            if per_byte:
                assert (costs.nvme_io_ns(depth * nvme.block_size, False)
                        <= 2 * costs.nvme_read_ns
                        < costs.nvme_io_ns((depth + 1) * nvme.block_size,
                                           False))

    def test_a_sequential_reader_pays_one_command_per_depth(self):
        """And waits on the first: the first hit in each window submits
        the next, which has landed when a reader that spends 3 us on a
        block gets there (68 of them outlast its ~140 us)."""
        commands, counts = self._sequential_read_back(work_ns=3_000)
        depth = DEFAULT_DEPTH
        # Blocks 0-67 on record 0's miss; 68-135 read ahead by the hit
        # on record 1, and 136-149 by the one on record 69.
        assert commands == [(0, (1, depth)), (1, (1, depth)),
                            (depth + 1, (1, 150 - 2 * depth))]
        assert counts == {"read_span_misses": 1, "read_ahead_hits": 2,
                          "read_span_hits": 147}

    def test_a_reader_faster_than_the_device_waits_on_each_window(self):
        """The same commands; a reader that spends nothing on a record
        reaches each read-ahead before it lands, and waits on it."""
        commands, counts = self._sequential_read_back(work_ns=0)
        assert [i for i, _cost in commands] == [0, 1, DEFAULT_DEPTH + 1]
        assert counts == {"read_span_misses": 3, "read_ahead_hits": 0,
                          "read_span_hits": 147}

    @staticmethod
    def _sequential_read_back(work_ns):
        """150 one-block records read in order: the reads that cost a
        command, with their (commands, blocks), and the read counters."""
        w, store, nvme = make_store()
        assert store._ahead_blocks == DEFAULT_DEPTH
        payloads = block_records(150, nvme.block_size)
        out, costs = read_costs(w, store, nvme, payloads, order=range(150),
                                work_ns=work_ns)
        assert out == payloads
        commands = [(i, cost) for i, cost in enumerate(costs)
                    if cost != (0, 0)]
        counts = {leaf: nvme.tracer.get("h.nvme0." + leaf) for leaf in (
            "read_span_misses", "read_ahead_hits", "read_span_hits")}
        return commands, counts

    def test_a_read_served_by_the_read_ahead_costs_what_a_hit_costs(self):
        """CPU per read: the submission goes to the hit that makes it,
        and the read that takes its blocks pays a hit's quarter
        submission, the allocation they land in and the free of the span
        they replace."""
        w, store, nvme = make_store()
        payloads = block_records(80, nvme.block_size)
        cpu = []

        def proc():
            ids = []
            for payload in payloads:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            for rid in ids:
                before = store.core.busy_ns
                (yield from store.read(rid)).buf.release()
                cpu.append(store.core.busy_ns - before)

        run(w, proc())
        c = store.costs
        hit, depth = c.spdk_submit_ns // 4, store._ahead_blocks
        assert cpu[0] == c.spdk_submit_ns + c.malloc_ns        # the miss
        assert cpu[1] == hit + c.spdk_submit_ns   # submits blocks 68-79
        assert cpu[depth] == hit + c.malloc_ns + c.free_ns   # takes them
        assert set(cpu[2:depth] + cpu[depth + 1:]) == {hit}

    def test_a_read_ahead_in_flight_is_never_displaced(self):
        """At most one read-ahead per store: one submitted while the
        device is slow is still in flight when the reader has jumped
        elsewhere, and the hits there submit nothing - until it lands;
        then the next hit replaces it with the window the reader needs.
        """
        plan = FaultPlan(seed=5).nvme_slow("h.nvme0", 1_000_000, 1_100_000)
        w, store, nvme = make_store(plan)
        payloads = block_records(300, nvme.block_size)
        trail = []

        def read(rid):
            (yield from store.read(rid)).buf.release()
            trail.append((device_reads(nvme)[0], store._ahead[0]
                          if store._ahead is not None else None))

        def proc():
            ids = []
            for payload in payloads:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            yield from read(ids[0])               # blocks 0-67
            yield w.sim.timeout(1_000_000 - w.sim.now)
            yield from read(ids[1])               # reads 68-135, slowly
            yield w.sim.timeout(1_200_000 - w.sim.now)
            yield from read(ids[200])             # 200-267, landed first
            assert not store._ahead[1].triggered
            yield from read(ids[201])             # a hit: 68-135 stays
            yield w.sim.timeout(3_000_000 - w.sim.now)
            yield from read(ids[202])             # landed: 268-299
            yield w.sim.timeout(4_000_000 - w.sim.now)
            yield from read(ids[268])             # takes it, landed

        run(w, proc())
        assert trail == [(1, None), (2, 68), (3, 68), (3, 68), (4, 268),
                         (4, None)]
        assert nvme.tracer.get("h.nvme0.read_ahead_hits") == 1

    def test_reads_in_any_order_see_their_own_records(self):
        """Backward, just behind the span, far behind it, past it: each
        record comes back right, and a one-block record's miss is one
        command from its own block."""
        w, store, nvme = make_store()
        payloads = block_records(40, nvme.block_size)
        order = [20, 19, 5, 6, 22, 39, 0, 30, 31, 19]
        out, costs = read_costs(w, store, nvme, payloads, order=order)
        assert out == [payloads[i] for i in order]
        assert costs == [(1, 20), (1, 21), (1, 35), (0, 0), (0, 0),
                         (0, 0), (1, 40), (0, 0), (0, 0), (0, 0)]

    def test_the_first_read_after_a_sync_brings_in_what_it_flushed(self):
        """A span from before the sync is gone; the read after it reads
        ahead over the records the sync wrote, and serves them right."""
        w, store, nvme = make_store()
        bs = nvme.block_size
        first = block_records(8, bs)
        more = block_records(8, bs, fill=100)
        costs = []

        def proc():
            ids = []
            for payload in first:
                ids.append((yield from store.append(payload)))
            yield from store.sync()
            for rid in ids[:2]:
                yield from store.read(rid)          # the span: blocks 0-7
            for payload in more:
                ids.append((yield from store.append(payload)))
            yield from store.sync()                 # drops it
            out = []
            for rid in [ids[1]] + ids[8:]:
                before = device_reads(nvme)
                out.append((yield from store.read(rid)).tobytes())
                after = device_reads(nvme)
                costs.append((after[0] - before[0], after[1] - before[1]))
            return out

        assert run(w, proc()) == first[1:2] + more
        assert costs == [(1, 15)] + [(0, 0)] * 8

    def test_never_past_the_flushed_tail(self):
        """Appends, syncs and reads interleaved: no span reaches a block
        no sync has written yet, and the records appended after a
        read-ahead are read right after their own sync."""
        w, store, nvme = make_store()
        bs = nvme.block_size
        spans = []

        def proc():
            ids, payloads, out = [], [], []
            for batch in range(6):
                for i in range(20):
                    payloads.append(sized(batch * 20 + i, 700))
                    ids.append((yield from store.append(payloads[-1])))
                yield from store.sync()
                for rid in ids:
                    out.append((yield from store.read(rid)).tobytes())
                    span_lba, span = store._read_span
                    spans.append((span_lba + span.capacity // bs,
                                  -(-store._buffer_base // bs)))
            expected = [p for batch in range(6)
                        for p in payloads[:20 * (batch + 1)]]
            return out == expected

        assert run(w, proc())
        assert all(end <= flushed for end, flushed in spans)
        assert any(end == flushed for end, flushed in spans)


class TestRecovery:
    def test_mount_rebuilds_tail(self):
        w, store, nvme = make_store()

        def write_phase():
            for i in range(5):
                yield from store.append(b"record-%d" % i)
            yield from store.sync()

        run(w, write_phase())
        # Fresh store object over the same device = restart after crash.
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            found = yield from recovered.mount()
            payloads = []
            for rid in found:
                payloads.append((yield from recovered.read(rid)).tobytes())
            return found, payloads

        found, payloads = run(w, recover_phase())
        assert len(found) == 5
        assert payloads == [b"record-%d" % i for i in range(5)]
        assert recovered.tail == store.tail

    def test_unsynced_records_lost_on_crash(self):
        w, store, nvme = make_store()

        def write_phase():
            yield from store.append(b"durable")
            yield from store.sync()
            yield from store.append(b"volatile")  # never synced

        run(w, write_phase())
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            return (yield from recovered.mount())

        found = run(w, recover_phase())
        assert len(found) == 1

    def test_corruption_stops_replay(self):
        w, store, nvme = make_store()

        def write_phase():
            for i in range(3):
                yield from store.append(b"record-%d" % i)
            yield from store.sync()

        run(w, write_phase())
        # Corrupt the middle record's payload directly on the device.
        block = bytearray(nvme.peek_block(0))
        block[20] ^= 0xFF
        nvme._blocks[0] = bytes(block)
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            return (yield from recovered.mount())

        found = run(w, recover_phase())
        assert len(found) < 3

    def test_mount_reads_each_block_once(self):
        w, store, nvme = make_store()
        payloads = [sized(i + 1, 300) for i in range(50)]   # 15 000 bytes

        def write_phase():
            for payload in payloads:
                yield from store.append(payload)
            yield from store.sync()

        run(w, write_phase())
        before = device_reads(nvme)
        recovered = LogStore(nvme, store.core)
        found = run(w, recovered.mount())
        assert len(found) == len(payloads)
        bs = nvme.block_size
        blocks = -(-store.tail // bs)
        straddles = sum(1 for rid in found
                        if rid // bs != (rid + 300 - 1) // bs)
        commands, moved = device_reads(nvme)
        assert commands - before[0] <= blocks + straddles
        assert moved - before[1] == blocks

    def test_nothing_of_a_dead_store_outlives_it(self):
        """The old store dies with a warm span over the tail block and
        unsynced appends behind it; the fresh store sees only flash."""
        w, store, nvme = make_store()

        def write_phase():
            durable = []
            for i in range(3):
                durable.append((yield from store.append(b"durable-%d" % i)))
            yield from store.sync()
            yield from store.read(durable[-1])    # span: the tail block
            yield from store.append(b"volatile")  # never synced
            return durable

        durable = run(w, write_phase())
        assert store._read_span[1] is not None
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            found = yield from recovered.mount()
            out = []
            for rid in found:
                out.append((yield from recovered.read(rid)).tobytes())
            return found, out

        found, out = run(w, recover_phase())
        assert found == durable
        assert out == [b"durable-%d" % i for i in range(3)]
        assert recovered.tail == (store.tail - RECORD_HEADER_LEN
                                  - len(b"volatile"))

    def test_remount_sees_what_another_writer_flushed(self):
        """mount() drops the span: flash may have moved on under it."""
        w, store, nvme = make_store()

        def write_phase():
            rid = yield from store.append(b"mine")
            yield from store.sync()
            yield from store.read(rid)    # span: the tail block
            other = LogStore(nvme, store.core)
            yield from other.mount()
            yield from other.append(b"theirs")
            yield from other.sync()
            out = []
            for rid in (yield from store.mount()):
                out.append((yield from store.read(rid)).tobytes())
            return out

        assert run(w, write_phase()) == [b"mine", b"theirs"]

    def test_appends_after_mount_keep_the_tail_block(self):
        """mount() rebuilds the partial tail block the next sync rewrites;
        without it that sync would zero the durable records before it."""
        w, store, nvme = make_store()

        def write_phase():
            yield from store.append(b"durable")
            yield from store.sync()

        run(w, write_phase())
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            found = yield from recovered.mount()
            found.append((yield from recovered.append(b"appended")))
            yield from recovered.sync()
            out = []
            for rid in found:
                out.append((yield from recovered.read(rid)).tobytes())
            return out

        assert run(w, recover_phase()) == [b"durable", b"appended"]
        assert run(w, LogStore(nvme, store.core).mount()) == [
            0, RECORD_HEADER_LEN + len(b"durable")]


class TestSpdkLibOS:
    def test_creat_push_pop(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/log")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"entry-1"))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"entry-2"))
            r1 = yield from libos.blocking_pop(qd)
            r2 = yield from libos.blocking_pop(qd)
            return r1.sga.tobytes(), r2.sga.tobytes()

        assert run(w, proc()) == (b"entry-1", b"entry-2")

    def test_open_reads_existing_records(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def writer():
            qd = yield from libos.creat("/data")
            for i in range(3):
                yield from libos.blocking_push(qd, libos.sga_alloc(b"r%d" % i))
            yield from libos.fsync(qd)

        run(w, writer())

        def reader():
            qd = yield from libos.open("/data")
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(qd)
                out.append(result.sga.tobytes())
            return out

        assert run(w, reader()) == [b"r0", b"r1", b"r2"]

    def test_pop_waits_for_append(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()
        order = []

        def reader(qd):
            result = yield from libos.blocking_pop(qd)
            order.append(("read", result.sga.tobytes()))

        def main():
            qd = yield from libos.creat("/tail")
            w.sim.spawn(reader(qd))
            yield w.sim.timeout(1_000_000)
            order.append(("write",))
            yield from libos.blocking_push(qd, libos.sga_alloc(b"fresh"))

        w.sim.spawn(main())
        w.run()
        assert order == [("write",), ("read", b"fresh")]

    def test_open_missing_raises(self):
        from repro.core.types import DemiError
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            with pytest.raises(DemiError):
                yield from libos.open("/ghost")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_no_syscalls_on_storage_path(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/fast")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"d" * 4096))
            yield from libos.fsync(qd)
            yield from libos.blocking_pop(qd)

        run(w, proc())
        # No kernel: no syscall or copy counters anywhere.
        assert all("kernel" not in k for k in w.tracer.counters)

    def test_mount_recovers_into_file(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def write_phase():
            qd = yield from libos.creat("/will-crash")
            yield from libos.blocking_push(qd, libos.sga_alloc(b"kept"))
            yield from libos.fsync(qd)

        run(w, write_phase())

        # Simulate restart: a fresh libOS over the same device.
        from repro.libos.spdk_libos import SpdkLibOS
        fresh = SpdkLibOS(libos.host, libos.nvme, name="h.catfish2")

        def recover_phase():
            n = yield from fresh.mount()
            qd = yield from fresh.open("/recovered")
            result = yield from fresh.blocking_pop(qd)
            return n, result.sga.tobytes()

        n, data = run(w, recover_phase())
        assert n == 1
        assert data == b"kept"
