"""Tests for the log store's predicate scans (on-device vs host loop)."""

import pytest

from repro.hw.nvme import NvmeDevice
from repro.storage.log import LogError, LogStore

from ..conftest import World


def make_store(**kw):
    w = World()
    host = w.add_host("h")
    nvme = NvmeDevice(host, name="h.nvme0")
    store = LogStore(nvme, host.cpu, **kw)
    return w, store, nvme


def run(w, gen):
    p = w.sim.spawn(gen)
    w.run()
    return p.value


def fill(store, payloads):
    for payload in payloads:
        yield from store.append(payload)
    yield from store.sync()


class TestScanResults:
    PAYLOADS = [b"apple-1", b"banana-2", b"apple-3", b"cherry-4", b"apple-5"]

    def test_device_and_host_scans_agree(self):
        w, store, _ = make_store()

        def proc():
            yield from fill(store, self.PAYLOADS)
            device = yield from store.scan(
                lambda p: p.startswith(b"apple"))
            host = yield from store.scan_host(
                lambda p: p.startswith(b"apple"))
            return device, host

        device, host = run(w, proc())
        assert device == host
        assert [p for _rid, p in device] == [b"apple-1", b"apple-3",
                                             b"apple-5"]

    def test_record_ids_are_readable_offsets(self):
        w, store, _ = make_store()

        def proc():
            yield from fill(store, self.PAYLOADS)
            matches = yield from store.scan(lambda p: b"cherry" in p)
            rid, payload = matches[0]
            again = yield from store.read(rid)
            return payload, again.tobytes()

        payload, again = run(w, proc())
        assert payload == again == b"cherry-4"

    def test_unflushed_records_invisible_to_device_scan(self):
        w, store, _ = make_store()

        def proc():
            yield from fill(store, [b"flushed"])
            yield from store.append(b"buffered")
            return (yield from store.scan(lambda p: True))

        matches = run(w, proc())
        assert [p for _rid, p in matches] == [b"flushed"]

    def test_empty_log_scans_to_nothing(self):
        w, store, _ = make_store()

        def proc():
            return (yield from store.scan(lambda p: True))

        assert run(w, proc()) == []

    def test_match_counter_recorded(self):
        w, store, nvme = make_store()

        def proc():
            yield from fill(store, self.PAYLOADS)
            yield from store.scan(lambda p: p.startswith(b"apple"))

        run(w, proc())
        assert nvme.tracer.get("h.nvme0.scans") == 1
        assert nvme.tracer.get("h.nvme0.scan_matches") == 3


class TestScanCosts:
    def test_device_scan_charges_almost_no_host_cpu(self):
        w, store, nvme = make_store()
        payloads = [b"record-%03d" % i for i in range(500)]  # 3 blocks
        cpu, reads, flushed = {}, {}, {}

        def read_bytes():
            return nvme.tracer.get("h.nvme0.read_bytes")

        def proc():
            yield from fill(store, payloads)
            flushed["bytes"] = store.tail
            cpu["before"] = store.core.busy_ns
            yield from store.scan(lambda p: False)
            cpu["device"] = store.core.busy_ns - cpu["before"]
            reads["device"] = read_bytes()
            yield from store.scan_host(lambda p: False)
            cpu["host"] = store.core.busy_ns - cpu["before"] - cpu["device"]
            reads["host"] = read_bytes() - reads["device"]

        run(w, proc())
        # One submission's worth of CPU vs a per-record charged loop.
        assert cpu["device"] == store.costs.spdk_submit_ns
        assert cpu["host"] > len(payloads) * store.costs.pipeline_element_cpu_ns
        # Every flushed block crossed PCIe once on the host path, whole;
        # none did on the device path (only the empty match list comes
        # back from its one command).
        blocks = -(-flushed["bytes"] // nvme.block_size)
        assert reads["host"] == blocks * nvme.block_size
        assert reads["device"] == 0
        assert nvme.tracer.get("h.nvme0.scans") == 1

    def test_raising_predicate_fails_the_scan(self):
        w, store, nvme = make_store()

        def proc():
            yield from fill(store, [b"x"])
            try:
                yield from store.scan(lambda p: 1 // 0)
            except ZeroDivisionError:
                return "raised"
            return "leaked"

        assert run(w, proc()) == "raised"
        assert nvme.tracer.get("h.nvme0.scan_faults") == 1


class TestScanPieces:
    """The scan goes out in one piece per flash channel, cut at record
    starts the store noted as it appended, one per read-ahead window."""

    #: 268 bytes on flash each: 12 000 of them fill 786 blocks, 11.6
    #: read-ahead windows
    RECORDS = [b"%05d" % i + b"s" * 251 for i in range(12_000)]

    def _scan(self, payloads, **kw):
        w, store, nvme = make_store(**kw)
        out = {}

        def proc():
            yield from fill(store, payloads)
            start, cpu = w.sim.now, store.core.busy_ns
            out["matches"] = yield from store.scan(lambda p: p[5] == 0x73)
            out["wall_ns"] = w.sim.now - start
            out["cpu_ns"] = store.core.busy_ns - cpu

        run(w, proc())
        get = nvme.tracer.get
        out.update(scans=get("h.nvme0.scans"),
                   blocks=get("h.nvme0.scan_bytes") // nvme.block_size)
        return out, store, nvme, w

    def test_a_long_log_goes_out_in_one_piece_per_channel(self):
        out, store, nvme, _ = self._scan(self.RECORDS)
        assert [p for _rid, p in out["matches"]] == self.RECORDS
        assert out["scans"] == nvme.channels == 8
        assert out["cpu_ns"] == 8 * store.costs.spdk_submit_ns
        # Each cut that falls inside a block scans that block twice.
        blocks = -(-store.tail // nvme.block_size)
        assert blocks < out["blocks"] <= blocks + 7
        # Side by side: the scan takes its longest piece, two windows and
        # a shared block, not the whole log.
        costs = store.costs
        longest = (2 * store._ahead_blocks + 1) * nvme.block_size
        piece_ns = (costs.nvme_io_ns(longest, False)
                    + int(longest * costs.nvme_scan_ns_per_byte))
        assert out["wall_ns"] <= piece_ns + out["cpu_ns"]

    def test_a_log_shorter_than_a_window_is_one_command(self):
        """The 400-record storelog-scan rows: nothing to cut at."""
        payloads = self.RECORDS[:400]
        out, store, _, _ = self._scan(payloads)
        assert out["scans"] == 1
        assert store._starts == [0]

    def test_one_piece_per_window_up_to_the_channels(self):
        out = self._scan(self.RECORDS[:3000])[0]
        assert out["scans"] == 3   # 196 blocks: windows 0, 1 and 2
        out = self._scan(self.RECORDS)[0]
        assert out["scans"] == 8   # of 12 record starts kept

    def test_mount_notes_the_same_cuts(self):
        _, store, nvme, w = self._scan(self.RECORDS)
        recovered = LogStore(nvme, store.core)
        assert len(run(w, recovered.mount())) == len(self.RECORDS)
        assert recovered._starts == store._starts
        assert len(store._starts) == 12
        starts = list(store._starts)
        run(w, store.mount())   # a remount notes them afresh
        assert store._starts == starts
