"""Property-based tests on the log store and the NVMe device."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.hw.nvme import NvmeDevice
from repro.sim.costs import DEFAULT_COSTS
from repro.storage.log import RECORD_HEADER_LEN, LogError, LogStore

from ..conftest import World

records_strategy = st.lists(st.binary(min_size=1, max_size=6000),
                            min_size=1, max_size=20)


def make_store():
    w = World()
    host = w.add_host("h")
    nvme = NvmeDevice(host, name="h.nvme0")
    return w, LogStore(nvme, host.cpu), nvme


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


class TestLogStoreProperties:
    @given(records_strategy)
    @settings(max_examples=30, deadline=None)
    def test_append_read_roundtrip_any_payloads(self, records):
        w, store, _ = make_store()

        def proc():
            ids = []
            for record in records:
                ids.append((yield from store.append(record)))
            yield from store.sync()
            out = []
            for rid in ids:
                out.append((yield from store.read(rid)).tobytes())
            return out

        assert run(w, proc()) == records

    @given(records_strategy, st.data())
    @settings(max_examples=25, deadline=None)
    def test_interleaved_syncs_preserve_all_records(self, records, data):
        """Records survive any pattern of intermediate syncs."""
        w, store, _ = make_store()
        sync_after = {i for i in range(len(records))
                      if data.draw(st.booleans())}

        def proc():
            ids = []
            for i, record in enumerate(records):
                ids.append((yield from store.append(record)))
                if i in sync_after:
                    yield from store.sync()
            yield from store.sync()
            out = []
            for rid in ids:
                out.append((yield from store.read(rid)).tobytes())
            return out

        assert run(w, proc()) == records

    @given(records_strategy)
    @settings(max_examples=20, deadline=None)
    def test_recovery_finds_exactly_synced_records(self, records):
        w, store, nvme = make_store()

        def write_phase():
            for record in records:
                yield from store.append(record)
            yield from store.sync()

        run(w, write_phase())
        recovered = LogStore(nvme, store.core)

        def recover_phase():
            ids = yield from recovered.mount()
            out = []
            for rid in ids:
                out.append((yield from recovered.read(rid)).tobytes())
            return out

        assert run(w, recover_phase()) == records

    @given(records_strategy)
    @settings(max_examples=20, deadline=None)
    def test_record_ids_strictly_increase(self, records):
        w, store, _ = make_store()

        def proc():
            ids = []
            for record in records:
                ids.append((yield from store.append(record)))
            return ids

        ids = run(w, proc())
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


#: record sizes that share a block, straddle two, and span several
sizes_strategy = st.one_of(st.integers(1, 400), st.integers(1500, 4200),
                           st.integers(8000, 9000))


class LogStoreMachine(RuleBasedStateMachine):
    """Any interleaving of append / sync / read / host scan / recovery
    against an in-memory oracle.

    What it is after is staleness: the store serves reads from the blocks
    its last device read brought in, and that copy must never be served
    once flash has moved on under it (a sync rewriting the tail block, a
    fresh store after a crash) - and a miss reads ahead, so no span may
    reach a block no sync has written yet.
    """

    def __init__(self):
        super().__init__()
        self.w, self.store, self.nvme = make_store()
        #: (record id, payload) in append order; the first *durable* of
        #: them have been synced
        self.records = []
        self.durable = 0
        #: read_next's position in self.records
        self.cursor = 0

    def run(self, gen):
        return run(self.w, gen)

    @rule(size=sizes_strategy, fill=st.integers(0, 255))
    def append(self, size, fill):
        payload = b"%d:" % len(self.records) + bytes([fill]) * size
        self.records.append((self.run(self.store.append(payload)), payload))

    @rule()
    def sync(self):
        self.run(self.store.sync())
        self.durable = len(self.records)

    @precondition(lambda self: self.records)
    @rule(data=st.data())
    def read(self, data):
        rid, payload = data.draw(st.sampled_from(self.records))
        assert self.run(self.store.read(rid)).tobytes() == payload

    @precondition(lambda self: self.records)
    @rule()
    def read_next(self):
        """A reader walking forward, wrapping at the end: the reader
        read-ahead is for, served mostly from the spans it installs."""
        rid, payload = self.records[self.cursor % len(self.records)]
        self.cursor += 1
        assert self.run(self.store.read(rid)).tobytes() == payload

    @invariant()
    def no_span_past_the_flushed_tail(self):
        span_lba, span = self.store._read_span
        bs = self.store.block_size
        held = span.capacity if span is not None else 0
        assert span_lba + held // bs <= -(-self.store._buffer_base // bs)

    @rule()
    def scan_host(self):
        assert (self.run(self.store.scan_host(lambda payload: True))
                == self.records[:self.durable])

    @rule()
    def crash_and_mount(self):
        """The process dies; its successor builds a fresh store over the
        same flash, recovers exactly the durable prefix and carries on."""
        del self.records[self.durable:]
        self.store = LogStore(self.nvme, self.store.core)
        assert (self.run(self.store.mount())
                == [rid for rid, _payload in self.records])

    def teardown(self):
        for rid, payload in self.records:
            assert self.run(self.store.read(rid)).tobytes() == payload


LogStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestLogStoreMachine = LogStoreMachine.TestCase


def test_machine_tail_block_read_then_appends_sync_and_reads():
    """The one interleaving a span kept across sync() gets wrong, spelled
    out: it would serve the new records of the old tail block as the
    zero padding it read, i.e. as ``bad magic``."""
    machine = LogStoreMachine()
    machine.append(size=100, fill=1)
    machine.sync()
    assert machine.run(machine.store.read(0)).tobytes() == machine.records[0][1]
    machine.append(size=100, fill=2)
    machine.append(size=100, fill=3)
    machine.sync()
    machine.scan_host()
    machine.teardown()


class TestNvmeProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_blocks_hold_last_write(self, data):
        w = World()
        host = w.add_host("h")
        dev = NvmeDevice(host, name="h.nvme0")
        expected = {}

        def proc():
            n_writes = data.draw(st.integers(1, 15))
            for _ in range(n_writes):
                lba = data.draw(st.integers(0, 63))
                fill = data.draw(st.integers(0, 255))
                payload = bytes([fill]) * dev.block_size
                expected[lba] = payload
                yield dev.submit_write(lba, payload)
            for lba, payload in expected.items():
                got = yield dev.submit_read(lba, 1)
                assert got == payload

        p = w.sim.spawn(proc())
        w.run()
        assert p.triggered


#: 512-byte blocks and a transfer cost that makes the read-ahead window
#: (and so the scan's cut granularity) 2 blocks, so a few dozen records
#: span enough windows for a scan to go out in eight pieces
SMALL_BLOCK = 512
SMALL_WINDOW_COSTS = DEFAULT_COSTS.with_overrides(nvme_ns_per_byte=60.0)

class OneChannelNvme(NvmeDevice):
    channels = 1


PREDICATES = {
    "all": lambda p: True,
    "none": lambda p: False,
    "odd-first-byte": lambda p: p[0] % 2 == 1,
    "long": lambda p: len(p) > 600,
    "mod-5": lambda p: sum(p[:4]) % 5 == 0,
}


def scanned_log(channels, records, sync_after, remount, corrupt, predicate):
    """Write *records* (syncing after the indices in *sync_after*) on a
    device of *channels* channels, optionally mount a fresh store over
    it, poke each ``(record index, field)`` of *corrupt* into flash and
    scan: the matches, or the error's type and message."""
    w = World(SMALL_WINDOW_COSTS)
    host = w.add_host("h")
    device = {1: OneChannelNvme, 8: NvmeDevice}[channels]
    nvme = device(host, name="h.nvme0")
    nvme.block_size = SMALL_BLOCK
    store = LogStore(nvme, host.cpu)
    ids = []

    def write():
        for i, record in enumerate(records):
            ids.append((yield from store.append(record)))
            if i in sync_after:
                yield from store.sync()
        yield from store.sync()

    run(w, write())
    if remount:
        store = LogStore(nvme, host.cpu)
        assert run(w, store.mount()) == ids
    for index, field in corrupt:
        # the magic's first byte, or the payload's
        at = ids[index] + (0 if field == "magic" else RECORD_HEADER_LEN)
        lba, byte = divmod(at, SMALL_BLOCK)
        block = bytearray(nvme.peek_block(lba))
        block[byte] ^= 0xFF
        nvme._blocks[lba] = bytes(block)

    def scan():
        try:
            return (yield from store.scan(PREDICATES[predicate]))
        except LogError as err:
            return ("LogError", str(err))

    return run(w, scan()), w.tracer.get("h.nvme0.scans")


class TestSplitScan:
    """The scan cut into one piece per channel returns what one command
    over the whole log returns, record for record."""

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 1500)),
                    min_size=1, max_size=100),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_split_scan_equals_one_command_scan(self, shapes, data):
        # (first byte, size): cheap to draw at sizes that fill windows
        records = [bytes((first + i) % 256 for i in range(size))
                   for first, size in shapes]
        n = len(records)
        sync_after = set(data.draw(st.lists(
            st.integers(0, n - 1), max_size=6), label="sync_after"))
        remount = data.draw(st.booleans(), label="remount")
        corrupt = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1),
                      st.sampled_from(["magic", "checksum"])),
            max_size=2, unique_by=lambda c: c[0]), label="corrupt")
        predicate = data.draw(st.sampled_from(sorted(PREDICATES)),
                              label="predicate")
        split, pieces = scanned_log(8, records, sync_after, remount,
                                    corrupt, predicate)
        whole, commands = scanned_log(1, records, sync_after, remount,
                                      corrupt, predicate)
        assert commands == 1
        assert split == whole
        assert 1 <= pieces <= 8

    def test_a_bad_magic_mid_log_truncates_both_the_same(self):
        records = [bytes([i]) * 700 for i in range(60)]
        split, pieces = scanned_log(8, records, {19, 40}, False,
                                    [(30, "magic"), (50, "checksum")],
                                    "all")
        whole, _ = scanned_log(1, records, {19, 40}, False,
                               [(30, "magic"), (50, "checksum")], "all")
        assert pieces == 8
        # The log ends at record 30; record 50's bad checksum, in a
        # later piece, is past the end and never raises.
        assert split == whole
        assert [p for _rid, p in split] == records[:30]

    def test_a_bad_checksum_raises_the_same_error(self):
        records = [bytes([i]) * 700 for i in range(60)]
        split, pieces = scanned_log(8, records, set(), True,
                                    [(45, "checksum")], "odd-first-byte")
        whole, _ = scanned_log(1, records, set(), True,
                               [(45, "checksum")], "odd-first-byte")
        assert pieces == 8
        assert split == whole
        assert split[0] == "LogError" and "checksum mismatch" in split[1]
