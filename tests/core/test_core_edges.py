"""Edge cases across core: pipelines closing, wait charges, server apps."""

import pytest

from repro.core.api import LibOS
from repro.core.types import DemiError

from ..conftest import World, make_dpdk_libos_pair


def make_libos(cores=4):
    w = World()
    host = w.add_host("h", cores=cores)
    return w, LibOS(host, "demi")


def run(w, gen, limit=10**12):
    p = w.sim.spawn(gen)
    w.sim.run_until_complete(p, limit=limit)
    return p.value


class TestPipelineLifecycle:
    def test_closing_derived_queue_stops_its_pump(self):
        w, libos = make_libos()
        src = libos.queue()
        flt = libos.filter(src, lambda sga: True)
        flt_queue = libos.queue_of(flt)

        def proc():
            yield from libos.close(flt)
            # The pump should die; pushes to src just buffer now.
            yield from libos.blocking_push(src, libos.sga_alloc(b"x"))
            yield w.sim.timeout(100_000)
            return len(libos.queue_of(src)._ready)

        remaining = run(w, proc())
        assert remaining == 1  # pump no longer consumed it
        assert flt_queue.closed

    def test_closing_source_ends_derived_pops_cleanly(self):
        w, libos = make_libos()
        src = libos.queue()
        mapped = libos.map(src, lambda sga: sga)

        def proc():
            yield from libos.blocking_push(src, libos.sga_alloc(b"one"))
            result = yield from libos.blocking_pop(mapped)
            yield from libos.close(src)
            yield w.sim.timeout(100_000)
            return result.sga.tobytes()

        assert run(w, proc()) == b"one"

    def test_pop_on_closed_sorted_queue_errors(self):
        w, libos = make_libos()
        src = libos.queue()
        sorted_qd = libos.sort(src, key=lambda sga: 0)

        def proc():
            yield from libos.close(sorted_qd)
            with pytest.raises(DemiError):
                libos.pop(sorted_qd)
            return "checked"

        assert run(w, proc()) == "checked"

    def test_filter_chain_three_deep(self):
        w, libos = make_libos()
        src = libos.queue()
        step1 = libos.filter(src, lambda sga: sga.nbytes >= 2)
        step2 = libos.filter(step1, lambda sga: sga.tobytes()[0:1] != b"#")
        step3 = libos.map(step2, lambda sga: libos.sga_alloc(
            sga.tobytes() + b"!"))

        def proc():
            for data in (b"x", b"#comment", b"keep1", b"keep2"):
                yield from libos.blocking_push(src, libos.sga_alloc(data))
            out = []
            for _ in range(2):
                result = yield from libos.blocking_pop(step3)
                out.append(result.sga.tobytes())
            return out

        assert run(w, proc()) == [b"keep1!", b"keep2!"]


class TestWaitCharging:
    def test_each_wait_charges_dispatch_cost(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            before = libos.core.busy_ns
            token = libos.push(qd, libos.sga_alloc(b"x"))
            yield from libos.wait(token)
            return libos.core.busy_ns - before

        charged = run(w, proc())
        assert charged >= libos.costs.wait_dispatch_ns

    def test_wait_on_already_completed_token(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            token = libos.push(qd, libos.sga_alloc(b"x"))
            yield w.sim.timeout(10_000)  # completion long since fired
            result = yield from libos.wait(token)
            return result.error is None

        assert run(w, proc()) is True

    def test_double_wait_on_same_token_rejected(self):
        w, libos = make_libos()
        qd = libos.queue()

        def proc():
            token = libos.push(qd, libos.sga_alloc(b"x"))
            yield from libos.wait(token)
            with pytest.raises(DemiError):
                yield from libos.wait(token)  # token retired
            return "checked"

        assert run(w, proc()) == "checked"


class TestKvServerMultiConnection:
    def test_two_clients_served_interleaved(self):
        from repro.apps.kvstore import (
            OP_GET,
            OP_PUT,
            KvEngine,
            demi_kv_client,
        )
        from repro.apps.proto import (KvEngineStore, LegacyKvCodec,
                                      ProtoServer)
        w, client_libos, server_libos = make_dpdk_libos_pair()
        server = ProtoServer(server_libos, LegacyKvCodec,
                             KvEngineStore(KvEngine(server_libos.host)),
                             port=6379)
        w.sim.spawn(server.start())

        ops_a = [(OP_PUT, b"a-key", b"a-value"), (OP_GET, b"a-key", None)]
        ops_b = [(OP_PUT, b"b-key", b"b-value"), (OP_GET, b"b-key", None)]
        pa = w.sim.spawn(demi_kv_client(client_libos, "10.0.0.2", ops_a))
        pb = w.sim.spawn(demi_kv_client(client_libos, "10.0.0.2", ops_b))
        w.sim.run_until_complete(pa, limit=10**13)
        w.sim.run_until_complete(pb, limit=10**13)
        server.stop()
        assert pa.value[0][1] == (True, b"a-value")
        assert pb.value[0][1] == (True, b"b-value")
        assert server.libos.counters.proto_requests == 4


class TestSpdkEdges:
    def test_fsync_with_nothing_buffered(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/empty")
            flushed = yield from libos.fsync(qd)
            return flushed

        assert run(w, proc()) == 0

    def test_duplicate_creat_rejected(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            yield from libos.creat("/dup")
            with pytest.raises(DemiError):
                yield from libos.creat("/dup")
            return "checked"

        assert run(w, proc()) == "checked"

    def test_two_open_handles_have_independent_cursors(self):
        from ..conftest import make_spdk_libos
        w, libos = make_spdk_libos()

        def proc():
            qd = yield from libos.creat("/shared")
            for i in range(3):
                yield from libos.blocking_push(qd, libos.sga_alloc(b"r%d" % i))
            h1 = yield from libos.open("/shared")
            h2 = yield from libos.open("/shared")
            r1 = yield from libos.blocking_pop(h1)
            r2 = yield from libos.blocking_pop(h2)
            return r1.sga.tobytes(), r2.sga.tobytes()

        first, second = run(w, proc())
        assert first == second == b"r0"  # both start at record 0
