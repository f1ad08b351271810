"""Property-based tests on the log store and the NVMe device."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.hw.nvme import NvmeDevice
from repro.storage.log import LogStore

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
        dev = NvmeDevice(host, name="h.nvme0", capacity_blocks=64)
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
