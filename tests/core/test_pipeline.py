"""Tests for queue pipelines: merge, filter, sort, map, qconnect, offload."""

import pytest

from repro.core.api import LibOS
from repro.hw.offload import OffloadEngine
from repro.sim.costs import DEFAULT_COSTS

from ..conftest import World


def make_libos(with_offload=False, capabilities=None):
    w = World()
    host = w.add_host("h", cores=4)
    libos = LibOS(host, "demi")
    if with_offload:
        libos.offload_engine = OffloadEngine(host, capabilities=capabilities)
    return w, libos


def run(w, gen, limit=10**12):
    p = w.sim.spawn(gen)
    w.sim.run_until_complete(p, limit=limit)
    return p.value


def payload_of(result):
    return result.sga.tobytes()


class TestFilter:
    def test_pop_side_filtering(self):
        w, libos = make_libos()
        src = libos.queue()
        flt = libos.filter(src, lambda sga: sga.tobytes().startswith(b"keep"))

        def proc():
            for data in (b"keep-1", b"drop-1", b"keep-2", b"drop-2"):
                yield from libos.blocking_push(src, libos.sga_alloc(data))
            out = []
            for _ in range(2):
                result = yield from libos.blocking_pop(flt)
                out.append(payload_of(result))
            return out

        assert run(w, proc()) == [b"keep-1", b"keep-2"]
        assert w.tracer.get("demi.pipeline.filter_dropped") == 2

    def test_push_side_filtering(self):
        w, libos = make_libos()
        src = libos.queue()
        flt = libos.filter(src, lambda sga: sga.nbytes >= 4)

        def proc():
            r1 = yield from libos.blocking_push(flt, libos.sga_alloc(b"long-enough"))
            r2 = yield from libos.blocking_push(flt, libos.sga_alloc(b"no"))
            return r1.value, r2.value

        v1, v2 = run(w, proc())
        assert v1 is None          # passed through
        assert v2 == "filtered"    # dropped at the filter

    def test_filter_runs_on_cpu_without_engine(self):
        w, libos = make_libos()
        src = libos.queue()
        flt = libos.filter(src, lambda sga: True)

        def proc():
            yield from libos.blocking_push(src, libos.sga_alloc(b"x"))
            yield from libos.blocking_pop(flt)

        run(w, proc())
        assert w.tracer.get("demi.pipeline.filter_cpu_elements") == 1
        assert w.tracer.get("demi.pipeline.filter_device_elements") == 0

    def test_filter_offloads_to_device_when_supported(self):
        w, libos = make_libos(with_offload=True)
        src = libos.queue()
        flt = libos.filter(src, lambda sga: True)

        def proc():
            yield from libos.blocking_push(src, libos.sga_alloc(b"x"))
            yield from libos.blocking_pop(flt)

        run(w, proc())
        assert w.tracer.get("demi.pipeline.filter_device_elements") == 1
        assert w.tracer.get("demi.pipeline.filter_cpu_elements") == 0
        assert libos.offload_engine.device_busy_ns > 0

    def test_filter_falls_back_when_device_lacks_capability(self):
        w, libos = make_libos(with_offload=True, capabilities={"map"})
        src = libos.queue()
        flt = libos.filter(src, lambda sga: True)

        def proc():
            yield from libos.blocking_push(src, libos.sga_alloc(b"x"))
            yield from libos.blocking_pop(flt)

        run(w, proc())
        assert w.tracer.get("demi.pipeline.filter_cpu_elements") == 1


class TestMap:
    def test_pop_side_transform(self):
        w, libos = make_libos()
        src = libos.queue()

        def upper(sga):
            return libos.sga_alloc(sga.tobytes().upper())

        mapped = libos.map(src, upper)

        def proc():
            yield from libos.blocking_push(src, libos.sga_alloc(b"quiet"))
            result = yield from libos.blocking_pop(mapped)
            return payload_of(result)

        assert run(w, proc()) == b"QUIET"

    def test_push_side_transform_applies_per_traversal(self):
        """Push applies fn on the way out; the pump applies it again on
        the way back in - so a push+pop round trip is fn(fn(x))."""
        w, libos = make_libos()
        src = libos.queue()
        mapped = libos.map(src, lambda sga: libos.sga_alloc(sga.tobytes()[::-1]))

        def proc():
            yield from libos.blocking_push(mapped, libos.sga_alloc(b"abc"))
            result = yield from libos.blocking_pop(mapped)
            return payload_of(result)

        # reverse(reverse(b"abc")) == b"abc"
        assert run(w, proc()) == b"abc"
        assert w.tracer.get("demi.pipeline.map_cpu_elements") == 2

    def test_chained_pipeline(self):
        """filter -> map compose into an I/O processing pipeline."""
        w, libos = make_libos()
        src = libos.queue()
        flt = libos.filter(src, lambda sga: not sga.tobytes().startswith(b"#"))
        mapped = libos.map(flt, lambda sga: libos.sga_alloc(sga.tobytes().strip()))

        def proc():
            for line in (b"# comment", b"  data-1  ", b"# another", b" data-2"):
                yield from libos.blocking_push(src, libos.sga_alloc(line))
            out = []
            for _ in range(2):
                result = yield from libos.blocking_pop(mapped)
                out.append(payload_of(result))
            return out

        assert run(w, proc()) == [b"data-1", b"data-2"]


class TestMerge:
    def test_pop_takes_from_either_source(self):
        w, libos = make_libos()
        q1, q2 = libos.queue(), libos.queue()
        merged = libos.merge(q1, q2)

        def proc():
            yield from libos.blocking_push(q1, libos.sga_alloc(b"from-1"))
            yield from libos.blocking_push(q2, libos.sga_alloc(b"from-2"))
            out = set()
            for _ in range(2):
                result = yield from libos.blocking_pop(merged)
                out.add(payload_of(result))
            return out

        assert run(w, proc()) == {b"from-1", b"from-2"}

    def test_push_goes_to_both_sources(self):
        w, libos = make_libos()
        q1, q2 = libos.queue(), libos.queue()
        merged = libos.merge(q1, q2)

        def proc():
            yield from libos.blocking_push(merged, libos.sga_alloc(b"dup"))
            # One copy went to each source; the pumps carry both back into
            # the merged buffer, so two pops observe the duplication.
            r1 = yield from libos.blocking_pop(merged)
            r2 = yield from libos.blocking_pop(merged)
            return payload_of(r1), payload_of(r2)

        assert run(w, proc()) == (b"dup", b"dup")


class TestSort:
    def test_pops_come_out_in_priority_order(self):
        w, libos = make_libos()
        src = libos.queue()
        sorted_qd = libos.sort(src, key=lambda sga: len(sga.tobytes()))

        def proc():
            for data in (b"mediums", b"x", b"long-payload-here"):
                yield from libos.blocking_push(src, libos.sga_alloc(data))
            # Let the pump drain the source into the sorted buffer.
            yield w.sim.timeout(100_000)
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(sorted_qd)
                out.append(payload_of(result))
            return out

        assert run(w, proc()) == [b"x", b"mediums", b"long-payload-here"]

    def test_ties_preserve_fifo(self):
        w, libos = make_libos()
        src = libos.queue()
        sorted_qd = libos.sort(src, key=lambda sga: 0)

        def proc():
            for data in (b"a", b"b", b"c"):
                yield from libos.blocking_push(src, libos.sga_alloc(data))
            yield w.sim.timeout(100_000)
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(sorted_qd)
                out.append(payload_of(result))
            return out

        assert run(w, proc()) == [b"a", b"b", b"c"]


class TestQconnect:
    def test_elements_flow_between_queues(self):
        w, libos = make_libos()
        q_in, q_out = libos.queue(), libos.queue()
        connector = libos.qconnect(q_in, q_out)

        def proc():
            for i in range(3):
                yield from libos.blocking_push(q_in, libos.sga_alloc(b"e%d" % i))
            out = []
            for _ in range(3):
                result = yield from libos.blocking_pop(q_out)
                out.append(payload_of(result))
            connector.stop()
            return out

        assert run(w, proc()) == [b"e0", b"e1", b"e2"]

    def test_stop_halts_flow(self):
        w, libos = make_libos()
        q_in, q_out = libos.queue(), libos.queue()
        connector = libos.qconnect(q_in, q_out)
        connector.stop()

        def proc():
            yield from libos.blocking_push(q_in, libos.sga_alloc(b"stranded"))
            yield w.sim.timeout(1_000_000)
            return len(libos.queue_of(q_out)._ready)

        assert run(w, proc()) == 0


class TestOffloadAblation:
    def test_device_filter_saves_host_cpu(self):
        """C6's mechanism: same pipeline, device vs CPU placement."""
        def run_variant(with_offload):
            w, libos = make_libos(with_offload=with_offload)
            src = libos.queue()
            flt = libos.filter(src, lambda sga: sga.tobytes()[0] % 2 == 0)

            def proc():
                kept = 0
                for i in range(100):
                    yield from libos.blocking_push(
                        src, libos.sga_alloc(bytes([i]) + b"payload"))
                while kept < 50:
                    result = yield from libos.blocking_pop(flt)
                    kept += 1
                return kept

            run(w, proc())
            return libos.core.busy_ns

        cpu_variant = run_variant(False)
        offload_variant = run_variant(True)
        saved = cpu_variant - offload_variant
        # 100 elements x pipeline_element_cpu_ns moved off the host CPU.
        assert saved >= 0.9 * 100 * DEFAULT_COSTS.pipeline_element_cpu_ns
