"""Catfish keeps more than one NVMe command in flight: the log store's
read-ahead runs beside the reader, and its scan goes out in one piece
per flash channel.  What is checked here is what a command in flight
may not do: outlive a crash, fail a pop a fresh read would serve, or
be displaced by another."""

from repro.core.types import DeviceFailed
from repro.kernelos.reclaim import crash_teardown

from ..conftest import make_spdk_libos

#: 256-byte records, 15 to a block: 3 000 of them fill 196 blocks, about
#: three read-ahead windows
RECORD = 256
#: what a reader spends on each record it pops, so a read-ahead lands
#: before the reader reaches it
WORK_NS = 1_000


def records(n, tag=b"r"):
    return [tag + b"%05d:" % i + bytes([i % 251]) * (RECORD - 7)
            for i in range(n)]


def write(libos, path, recs, fsync_every=64):
    """Sim-coroutine: *recs* appended to *path*, flushed about every
    *fsync_every*; returns the writer's qd."""
    qd = yield from libos.creat(path)
    for i, record in enumerate(recs):
        sga = libos.sga_alloc(record)
        yield from libos.blocking_push(qd, sga)
        libos.sga_free(sga)
        if i % fsync_every == fsync_every - 1:
            yield from libos.fsync(qd)
    yield from libos.fsync(qd)
    return qd


def pop(libos, qd, out):
    """Sim-coroutine: one pop, its bytes appended to *out* (or the
    error it failed with)."""
    result = yield from libos.blocking_pop(qd)
    if result.error is not None:
        out.append(result.error)
        return
    out.append(result.sga.tobytes())
    libos.sga_free(result.sga)


class TestAbort:
    def test_an_aborted_read_ahead_fails_no_pop(self):
        """The device aborts the read-ahead while the reader works
        through the span; the pop that reaches its blocks reads them
        itself, and every pop returns its record."""
        w, libos = make_spdk_libos()
        store, nvme = libos.store, libos.nvme
        recs = records(3000)
        out, aborted = [], []

        def app():
            yield from write(libos, "/log", recs)
            qd = yield from libos.open("/log")
            for i in range(len(recs)):
                yield from pop(libos, qd, out)
                if i == 1:   # the first hit submitted the next window
                    assert store._ahead is not None
                    aborted.append(nvme.abort_all())
                yield w.sim.timeout(WORK_NS)
            yield from libos.close(qd)

        w.sim.spawn(app())
        w.run()
        assert aborted == [1]
        assert out == recs
        get = w.tracer.get
        # Three windows: the first read's, the aborted one read again by
        # the miss that reached it, and one read ahead after that.
        assert get("h.nvme0.reads") == 4
        assert get("h.nvme0.read_span_misses") == 2
        assert get("h.nvme0.read_ahead_hits") == 1
        assert libos.mm.live_buffer_count == 0


class TestCrash:
    def test_a_crash_with_a_read_ahead_and_a_split_scan_in_flight(self):
        """crash_teardown aborts both; nothing of either outlives it,
        and every pop that completed before it returned its record."""
        w, libos = make_spdk_libos()
        store, nvme = libos.store, libos.nvme
        recs = records(3000)
        out, scanned = [], []
        armed = w.sim.completion("armed")

        def scanner():
            try:
                scanned.append((yield from store.scan(lambda p: True)))
            except DeviceFailed as err:
                scanned.append(err)

        def app():
            yield from write(libos, "/log", recs)
            qd = yield from libos.open("/log")
            for i in range(len(recs)):
                yield from pop(libos, qd, out)
                if i == 1:
                    w.sim.spawn(scanner())
                    armed.trigger()
                yield w.sim.timeout(WORK_NS)

        proc = w.sim.spawn(app())
        in_flight = {}

        def crasher():
            yield armed
            yield w.sim.timeout(20_000)
            in_flight["ahead"] = not store._ahead[1].triggered
            in_flight["commands"] = nvme.inflight_commands
            yield from crash_teardown(libos, proc)

        w.sim.spawn(crasher())
        w.run()
        # The read-ahead and the scan's three pieces (196 blocks, cut at
        # the records that start windows 1 and 2).
        assert in_flight == {"ahead": True, "commands": 4}
        assert w.tracer.get("h.nvme0.scans") == 3
        assert len(scanned) == 1 and isinstance(scanned[0], DeviceFailed)
        assert out and out == recs[:len(out)]
        assert libos.mm.live_buffer_count == 0
        assert nvme.inflight_commands == 0
        assert libos.qtokens.in_flight == 0
        assert store._ahead is None and store._read_span[1] is None


#: a record that fills one block, header included
BLOCK_PAYLOAD = 4096 - 12


class TestTwoReaders:
    """Two files of one store, popped in turns: one span and one
    read-ahead serve both, and a read-ahead one reader's hit submitted
    is never displaced by the other's while it is in flight.  Records
    fill a block each, 100 per file (three read-ahead windows in all),
    and a reader spends 3 us on each, so 68 of them outlast a window's
    read."""

    def _alternate(self, layout, turn):
        w, libos = make_spdk_libos()
        store, nvme = libos.store, libos.nvme
        files = {path: [path.encode() + b"%03d" % i
                        + bytes([i]) * (BLOCK_PAYLOAD - 5)
                        for i in range(100)] for path in ("/a", "/b")}
        got = {path: [] for path in files}
        displaced = []
        submit_read = nvme.submit_read

        def spy(lba, nblocks):
            before = store._ahead
            done = submit_read(lba, nblocks)

            def check():
                # It became the read-ahead in the instant it went out:
                # the one it replaced, if any, had landed.
                ahead = store._ahead
                if (ahead is not None and ahead[1] is done
                        and before is not None
                        and not before[1].triggered):
                    displaced.append(lba)

            w.sim.call_in(0, check)
            return done

        def app():
            if layout == "interleaved":
                writers = []
                for path in files:
                    writers.append((yield from libos.creat(path)))
                for pair in zip(*files.values()):
                    for qd, record in zip(writers, pair):
                        sga = libos.sga_alloc(record)
                        yield from libos.blocking_push(qd, sga)
                        libos.sga_free(sga)
                yield from libos.fsync(writers[0])
            else:
                for path, recs in files.items():
                    yield from write(libos, path, recs)
            nvme.submit_read = spy
            readers = []
            for path in files:
                readers.append((path, (yield from libos.open(path))))
            for _ in range(100 // max(1, turn)):
                if not turn:   # both pops armed together
                    results = yield from libos.wait_all(
                        [libos.pop(qd) for _path, qd in readers])
                    for (path, _qd), result in zip(readers, results):
                        got[path].append(result.sga.tobytes())
                        libos.sga_free(result.sga)
                    yield w.sim.timeout(3 * WORK_NS * len(readers))
                    continue
                for path, qd in readers:
                    for _ in range(turn):
                        yield from pop(libos, qd, got[path])
                        yield w.sim.timeout(3 * WORK_NS)

        w.sim.spawn(app())
        w.run()
        assert got == files
        assert displaced == []
        return {leaf: w.tracer.get("h.nvme0." + leaf) for leaf in (
            "reads", "read_span_misses", "read_ahead_hits")}

    def test_files_interleaved_in_the_log_share_the_read_ahead(self):
        """Either reader's hit reads ahead for both: the commands of one
        reader of 200 blocks, and one wait."""
        assert self._alternate("interleaved", turn=1) == {
            "reads": 3, "read_span_misses": 1, "read_ahead_hits": 2}

    def test_two_readers_hitting_at_once_submit_one_read_ahead(self):
        """Both pops armed together: each queue's reader process hits
        the span in the same instant, and only the first reads ahead - the
        second finds it submitted when its own submission's CPU is
        spent, and submits nothing.  The two first pops miss together
        and each read a window (from blocks 0 and 1); two read-aheads
        follow, each taken landed."""
        assert self._alternate("interleaved", turn=0) == {
            "reads": 4, "read_span_misses": 2, "read_ahead_hits": 2}

    def test_files_apart_in_the_log_take_the_span_from_each_other(self):
        """Blocks 0-99 and 100-199, one pop each in turn: every pop
        misses, and reads a window from its own record on - no hit, so
        no read-ahead."""
        assert self._alternate("separate", turn=1) == {
            "reads": 200, "read_span_misses": 200, "read_ahead_hits": 0}

    def test_files_apart_read_in_turns_waste_their_read_aheads(self):
        """Four pops a turn: each turn's first pop misses (50 reads),
        and its second hits and reads ahead (33 more: in every turn of
        /a's, and in /b's until its span reaches the flushed tail),
        replacing the other reader's read-ahead, which landed while
        that miss waited.  None of the 33 is taken: the reader it was
        for comes back to a span the other one moved, and misses at its
        own record.  (Read synchronously only, the same pops cost 50
        reads.)"""
        assert self._alternate("separate", turn=4) == {
            "reads": 83, "read_span_misses": 50, "read_ahead_hits": 0}
