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
