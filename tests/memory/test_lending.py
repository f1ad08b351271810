"""Lent slices: a segment of a buffer someone else owns, kept alive by
free-protection until the application gives it back with ``sga_free``."""

import pytest

from repro.core.types import Sga, SgaSegment
from repro.memory.buffer import BufferError

from ..conftest import make_spdk_libos


def lend_from(libos, data=b"0123456789"):
    """An owned buffer holding *data* and a lent slice of its middle."""
    buf = libos.mm.alloc(len(data))
    buf.write(0, data)
    return buf, libos.mm.lend(SgaSegment(buf, 2, 4, lent=True))


class TestLend:
    def test_the_owner_frees_and_the_slice_still_reads(self):
        w, libos = make_spdk_libos()
        buf, segment = lend_from(libos)
        libos.mm.free(buf)
        assert not buf.deallocated
        assert segment.tobytes() == b"2345"
        assert w.tracer.get("mm.deferred_frees") == 1
        libos.sga_free(Sga([segment]))
        assert buf.deallocated
        assert libos.mm.live_buffer_count == 0

    def test_the_slice_given_back_first_leaves_the_owner_its_buffer(self):
        w, libos = make_spdk_libos()
        buf, segment = lend_from(libos)
        libos.sga_free(Sga([segment]))
        assert not buf.freed and not buf.in_use
        assert buf.read(0, 2) == b"01"

    def test_a_double_free_of_a_lent_segment_raises(self):
        w, libos = make_spdk_libos()
        _buf, segment = lend_from(libos)
        libos.sga_free(Sga([segment]))
        with pytest.raises(BufferError, match="double free"):
            libos.sga_free(Sga([segment]))

    def test_giving_back_charges_free_ns_and_counts_a_lent_return(self):
        w, libos = make_spdk_libos()
        _buf, segment = lend_from(libos)
        busy = libos.core.busy_ns
        libos.sga_free(Sga([segment]))
        assert libos.core.busy_ns - busy == libos.costs.free_ns
        assert w.tracer.get("mm.lent_returns") == 1
        assert w.tracer.get("mm.frees") == 0   # the buffer is not its to free

    def test_crash_reclaim_gives_back_what_the_process_was_lent(self):
        w, libos = make_spdk_libos()
        buf, _segment = lend_from(libos)
        libos.mm.free_all()
        assert buf.deallocated
        assert w.tracer.get("mm.lent_returns") == 1
        assert libos.mm.live_buffer_count == 0
