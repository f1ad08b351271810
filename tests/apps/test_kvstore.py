"""Tests for the Redis-like KV store on both frontends."""

import pytest

from repro.apps.kvstore import (
    OP_GET,
    OP_PUT,
    KvEngine,
    UdpKvServer,
    demi_kv_client,
    get_result,
    kv_workload,
    op_request,
    posix_kv_client,
    posix_kv_server,
)
from repro.apps.proto import (KvEngineStore, LegacyKvCodec, MemcachedCodec,
                              ProtoServer, RespCodec)
from repro.sim.rand import Rng

from ..conftest import make_dpdk_libos_pair, make_kernel_pair, proto_client


def kv_server(server_libos, codec_cls=LegacyKvCodec):
    return ProtoServer(server_libos, codec_cls,
                       KvEngineStore(KvEngine(server_libos.host)), port=6379)


class TestEngine:
    def test_put_get(self, world):
        host = world.add_host("h")
        engine = KvEngine(host)
        engine.put(b"k", b"value")
        assert engine.get(b"k").tobytes() == b"value"
        assert engine.misses == 0

    def test_miss_counted(self, world):
        host = world.add_host("h")
        engine = KvEngine(host)
        assert engine.get(b"nope") is None
        assert engine.misses == 1

    def test_empty_value_keeps_its_length(self, world):
        host = world.add_host("h")
        engine = KvEngine(host)
        stored = engine.put(b"k", b"")
        assert stored.buf.capacity >= 1   # a buffer is never empty
        assert engine.get(b"k").nbytes == 0
        assert engine.get(b"k").tobytes() == b""

    def test_put_swaps_buffer_and_frees_old(self, world):
        host = world.add_host("h")
        engine = KvEngine(host)
        old = engine.put(b"k", b"old").buf
        new = engine.put(b"k", b"new").buf
        assert old is not new
        assert old.freed          # section 4.5: old buffer freed on swap
        assert not new.freed

    def test_put_with_inflight_dma_defers_free(self, world):
        """Free-protection in the Redis pattern: the swapped-out value is
        mid-DMA (a zero-copy GET response); the free defers."""
        host = world.add_host("h")
        engine = KvEngine(host)
        old = engine.put(b"k", b"old-value").buf
        old.hold()  # NIC is sending this value right now
        engine.put(b"k", b"new-value")
        assert old.freed and not old.deallocated
        old.release()
        assert old.deallocated
        assert world.tracer.get("mm.deferred_frees") == 1


def kv_op_client(libos, codec_cls, operations):
    """(op, key, value) tuples under any codec; results like the KV client."""
    replies = yield from proto_client(
        libos, codec_cls, [op_request(*op) for op in operations])
    return [None if op == OP_PUT else get_result(reply)
            for (op, _key, _value), reply in zip(operations, replies)]


@pytest.mark.parametrize("codec_cls",
                         [LegacyKvCodec, RespCodec, MemcachedCodec],
                         ids=lambda c: c.name)
class TestKvServer:
    def run_ops(self, codec_cls, operations):
        w, client, server_libos = make_dpdk_libos_pair()
        server = kv_server(server_libos, codec_cls)
        w.sim.spawn(server.start(), name="kv-server")
        cp = w.sim.spawn(kv_op_client(client, codec_cls, operations))
        w.sim.run_until_complete(cp, limit=10**12)
        server.stop()
        w.run(until=w.sim.now + 10_000_000)
        return w, server, cp.value

    def test_put_then_get(self, codec_cls):
        ops = [(OP_PUT, b"hello", b"world"), (OP_GET, b"hello", None)]
        _w, server, results = self.run_ops(codec_cls, ops)
        assert results[1] == (True, b"world")
        assert server.requests_served == 2

    def test_get_missing_key(self, codec_cls):
        ops = [(OP_GET, b"ghost", None)]
        _w, _server, results = self.run_ops(codec_cls, ops)
        assert results[0] == (False, None)

    def test_overwrite_returns_new_value(self, codec_cls):
        ops = [
            (OP_PUT, b"k", b"v1"),
            (OP_PUT, b"k", b"v2-new"),
            (OP_GET, b"k", None),
        ]
        _w, _server, results = self.run_ops(codec_cls, ops)
        assert results[2] == (True, b"v2-new")

    def test_overwrite_with_empty_value(self, codec_cls):
        ops = [
            (OP_PUT, b"k", b"not empty"),
            (OP_PUT, b"k", b""),
            (OP_GET, b"k", None),
        ]
        _w, _server, results = self.run_ops(codec_cls, ops)
        assert results[2] == (True, b"")

    def test_many_operations(self, codec_cls):
        rng = Rng(7)
        ops = kv_workload(rng, 50, n_keys=10, value_size=128,
                          get_fraction=0.5)
        _w, server, results = self.run_ops(codec_cls, ops)
        assert server.requests_served == 50
        assert server.service_stats.count == 50
        # GETs on keys already PUT must return their latest values.
        latest = {}
        for (op, key, value), result in zip(ops, results):
            if op == OP_PUT:
                latest[key] = value
            else:
                ok, got = result
                if key in latest:
                    assert ok and got == latest[key]


class TestEmptyValue:
    """A stored empty value reads back empty off the UDP and POSIX servers
    too (the stream codecs: ``TestKvServer.test_overwrite_with_empty_value``):
    the engine keeps the value's length, not its buffer's (never empty)."""

    EMPTY = [(OP_PUT, b"k", b""), (OP_GET, b"k", None)]

    def test_udp_zero_copy_reply(self):
        w, client, server_libos = make_dpdk_libos_pair()
        srv = UdpKvServer(server_libos, port=6379)
        w.sim.spawn(srv.run(), name="server")
        cp = w.sim.spawn(demi_kv_client(client, "10.0.0.2", self.EMPTY,
                                        proto="udp"))
        w.sim.run_until_complete(cp, limit=10**12)
        srv.stop()
        assert cp.value[0][1] == (True, b"")

    def test_posix_server(self):
        w, ka, kb = make_kernel_pair()
        w.sim.spawn(posix_kv_server(kb, KvEngine(kb.host), max_requests=2))
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", self.EMPTY))
        w.run()
        assert cp.value[0][1] == (True, b"")


class TestDemiKvClient:
    @pytest.mark.parametrize("codec_cls", [None, RespCodec],
                             ids=["default-legacy", "resp"])
    def test_closed_loop_results_and_stats(self, codec_cls):
        w, client, server_libos = make_dpdk_libos_pair()
        server = kv_server(server_libos, codec_cls or LegacyKvCodec)
        w.sim.spawn(server.start(), name="kv-server")
        ops = kv_workload(Rng(7), 50, n_keys=10, value_size=128,
                          get_fraction=0.5)
        cp = w.sim.spawn(demi_kv_client(
            client, "10.0.0.2", ops,
            codec=codec_cls() if codec_cls else None))
        w.sim.run_until_complete(cp, limit=10**12)
        server.stop()
        results, stats = cp.value
        assert stats.count == 50 == server.requests_served
        assert [r is None for r in results] \
            == [op == OP_PUT for op, _k, _v in ops]


class TestPosixKvServer:
    def test_put_then_get(self):
        w, ka, kb = make_kernel_pair()
        engine = KvEngine(kb.host)
        ops = [(OP_PUT, b"hello", b"world"), (OP_GET, b"hello", None)]
        w.sim.spawn(posix_kv_server(kb, engine, max_requests=2))
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
        w.run()
        results, _ = cp.value
        assert results[1] == (True, b"world")

    def test_posix_get_copies_value(self):
        w, ka, kb = make_kernel_pair()
        engine = KvEngine(kb.host)
        ops = [(OP_PUT, b"k", b"v" * 4096), (OP_GET, b"k", None)]
        w.sim.spawn(posix_kv_server(kb, engine, max_requests=2))
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
        w.run()
        assert w.tracer.get("server.kernel.kv_value_copies") == 1

    def test_malformed_request_closes_the_connection_not_the_sim(self):
        """A framed record that does not parse is counted and costs its
        sender the connection; it used to raise CodecError out of
        ``sim.run``.  The server takes one connection, so "the rest"
        here is a second server on the same kernel, served afterwards."""
        from repro.netstack.framing import frame_message

        w, ka, kb = make_kernel_pair()
        first = w.sim.spawn(posix_kv_server(kb, KvEngine(kb.host)))
        w.sim.spawn(posix_kv_server(kb, KvEngine(kb.host, name="kv2"),
                                    port=6380, max_requests=2))

        def hostile():
            sys = ka.thread()
            fd = yield from sys.socket()
            yield from sys.connect(fd, "10.0.0.2", 6379)
            put = LegacyKvCodec().encode_request(
                op_request(OP_PUT, b"k", b"v"))
            yield from sys.send(fd, frame_message(put))
            stored = yield from sys.recv(fd)
            yield from sys.send(fd, frame_message(b"\xff\x00\x00"))
            eof = yield from sys.recv(fd)
            yield from sys.close(fd)
            return stored, eof

        bad = w.sim.spawn(hostile())
        w.sim.run_until_complete(bad, limit=10**12)
        stored, eof = bad.value
        assert stored and eof == b""
        assert first.value == 1          # the PUT; then the server hung up
        assert w.tracer.get("server.kernel.kv_malformed_requests") == 1
        ops = [(OP_PUT, b"hello", b"world"), (OP_GET, b"hello", None)]
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops, port=6380))
        w.run()
        assert cp.value[0][1] == (True, b"world")

    def test_copy_overhead_shows_in_latency(self):
        """Claim C2's mechanism: POSIX GET latency grows with value size
        faster than the zero-copy Demikernel GET."""
        def posix_get_rtt(value_size):
            w, ka, kb = make_kernel_pair()
            engine = KvEngine(kb.host)
            ops = ([(OP_PUT, b"k", b"v" * value_size)]
                   + [(OP_GET, b"k", None)] * 5)
            w.sim.spawn(posix_kv_server(kb, engine, max_requests=6))
            cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
            w.run()
            return cp.value[1].p50

        def demi_get_rtt(value_size):
            w, client, server_libos = make_dpdk_libos_pair()
            server = kv_server(server_libos)
            w.sim.spawn(server.start())
            ops = ([(OP_PUT, b"k", b"v" * value_size)]
                   + [(OP_GET, b"k", None)] * 5)
            cp = w.sim.spawn(demi_kv_client(client, "10.0.0.2", ops))
            w.sim.run_until_complete(cp, limit=10**12)
            server.stop()
            return cp.value[1].p50

        posix_delta = posix_get_rtt(8192) - posix_get_rtt(64)
        demi_delta = demi_get_rtt(8192) - demi_get_rtt(64)
        assert posix_delta > demi_delta * 1.5
