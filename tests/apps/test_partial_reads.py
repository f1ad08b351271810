"""Partial-read framing through ProtoServer, for every codec (the fixed bug).

Before the codec port, the cache server fed each popped element straight
into a one-shot parser: a request split across two pops decoded garbage
or crashed, and a truncated PUT silently stored a truncated value.
These tests pin the fix end to end: every split offset of a request
stream serves identically, malformed bytes close a TCP stream (and only
that stream) or drop a UDP datagram (and only that datagram).
"""

import pytest

from repro.apps.cache import LruTtlCache
from repro.apps.kvstore import (OP_GET, OP_PUT, KvEngine, UdpKvServer,
                                demi_kv_client)
from repro.apps.proto import (KvEngineStore, LegacyKvCodec, MemcachedCodec,
                              ProtoServer, RespCodec)
from repro.apps.proto.codec import Request

from ..conftest import chunk_client, make_dpdk_libos_pair

PORT = 11211

#: codec -> bytes that desynchronise its request stream
GARBAGE = {
    LegacyKvCodec: b"\xff\x00\x03abc",        # not 'G' or 'P'
    RespCodec: b"GARBAGE\r\n",
    MemcachedCodec: b"\x42" + b"\x00" * 23,   # wrong magic byte
}
CACHE_CODECS = [RespCodec, MemcachedCodec]


def by_name(codec_cls):
    return codec_cls.name


def start_server(codec_cls):
    w, client, server_libos = make_dpdk_libos_pair()
    if codec_cls is LegacyKvCodec:
        store = KvEngineStore(KvEngine(server_libos.host))
    else:
        store = LruTtlCache(lambda: server_libos.sim.now)
    server = ProtoServer(server_libos, codec_cls, store, port=PORT)
    w.sim.spawn(server.start(), name="proto-server")
    return w, client, server_libos, server


def run_chunks(codec_cls, chunks, n_replies):
    w, client, _server_libos, server = start_server(codec_cls)
    cp = w.sim.spawn(chunk_client(client, codec_cls, chunks, n_replies,
                                  port=PORT))
    w.sim.run_until_complete(cp, limit=10**13)
    server.stop()
    w.run(until=w.sim.now + 5_000_000)
    return server, cp.value


def cache_script(codec_cls):
    """SET(k)=v, GET(k) hit, DELETE(k), GET(k) miss - 4 replies."""
    codec = codec_cls()
    return b"".join(codec.encode_request(r) for r in [
        Request(op="set", key=b"k", value=b"v"), Request(op="get", key=b"k"),
        Request(op="delete", key=b"k"), Request(op="get", key=b"k")])


def check_cache_script(server, replies, note=""):
    assert [r.status for r in replies] == [
        "stored", "value", "count", "miss"], note
    assert replies[1].value == b"v"
    assert server.decode_errors == 0
    stats = server.service.store.stats
    assert (stats.sets, stats.hits, stats.deletes) == (1, 1, 1)


@pytest.mark.parametrize("codec_cls", CACHE_CODECS, ids=by_name)
class TestSplitRequests:
    def test_every_split_offset_serves_identically(self, codec_cls):
        # Two pushes cut at EVERY byte boundary of the stream: the
        # request mix, reply order, and cache effects never change.
        script = cache_script(codec_cls)
        for cut in range(1, len(script)):
            server, replies = run_chunks(
                codec_cls, [script[:cut], script[cut:]], 4)
            check_cache_script(server, replies, "split at %d" % cut)

    def test_one_byte_at_a_time(self, codec_cls):
        script = cache_script(codec_cls)
        server, replies = run_chunks(
            codec_cls, [bytes([b]) for b in script], 4)
        check_cache_script(server, replies)

    def test_pipelined_whole_script_in_one_push(self, codec_cls):
        server, replies = run_chunks(codec_cls, [cache_script(codec_cls)], 4)
        check_cache_script(server, replies)
        # Four requests, one wake-up's worth of element, one reply push.
        assert server.loop.dispatches == 2  # the accept + the element


def kv_script():
    """PUT(k)=v, GET(k) hit, GET of a key never stored - 3 replies."""
    codec = LegacyKvCodec()
    return b"".join(codec.encode_request(r) for r in [
        Request(op="set", key=b"k", value=b"v"), Request(op="get", key=b"k"),
        Request(op="get", key=b"nope")])


def check_kv_script(server, replies, note=""):
    # Legacy-kv acks a PUT as OK + an empty value on the wire.
    assert [r.status for r in replies] == ["value", "value", "miss"], note
    assert [r.value for r in replies[:2]] == [b"", b"v"], note
    assert server.decode_errors == 0
    assert server.requests_served == 3


class TestLegacyKvSplitRequests:
    """The KV format has no cache verbs, so it gets its own script."""

    def test_every_split_offset_serves_identically(self):
        script = kv_script()
        for cut in range(1, len(script)):
            server, replies = run_chunks(
                LegacyKvCodec, [script[:cut], script[cut:]], 3)
            check_kv_script(server, replies, "split at %d" % cut)

    def test_one_byte_at_a_time(self):
        server, replies = run_chunks(
            LegacyKvCodec, [bytes([b]) for b in kv_script()], 3)
        check_kv_script(server, replies)


@pytest.mark.parametrize("codec_cls", list(GARBAGE), ids=by_name)
class TestMalformedStream:
    def test_garbage_closes_only_that_connection(self, codec_cls):
        w, client, server_libos, server = start_server(codec_cls)
        script = [Request(op="set", key=b"k", value=b"v"),
                  Request(op="get", key=b"k")]
        codec = codec_cls()

        def bad_then_good():
            # Stream desync, not a slow sender: the server must hang up.
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", PORT)
            yield from client.blocking_push(
                qd, client.sga_alloc(GARBAGE[codec_cls]))
            result = yield from client.blocking_pop(qd)
            assert result.error is not None
            yield from client.close(qd)
            # A fresh connection is served normally.
            return (yield from chunk_client(
                client, codec_cls,
                [codec.encode_request(r) for r in script], 2, port=PORT))

        cp = w.sim.spawn(bad_then_good())
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        w.run(until=w.sim.now + 5_000_000)
        assert cp.value[1].value == b"v"
        assert server.requests_served == 2  # the garbage served nothing
        assert server.decode_errors == 1
        assert server_libos.tracer.get(
            "server.catnip.proto_decode_errors") == 1


def run_udp(body_for):
    w, client, server_libos = make_dpdk_libos_pair()
    server = UdpKvServer(server_libos, port=6379)
    sp = w.sim.spawn(server.run(), name="udp-kv-server")
    cp = w.sim.spawn(body_for(client))
    w.sim.run_until_complete(cp, limit=10**13)
    server.stop()
    if sp.alive:
        sp.interrupt("test done")
    w.run(until=w.sim.now + 5_000_000)
    return server_libos, server, cp.value


class TestUdpKvServerMalformedDatagram:
    def test_bad_datagram_dropped_server_keeps_serving(self):
        def bad_then_good(client):
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 6379)
            # A malformed datagram gets no reply - UDP just drops it.
            yield from client.blocking_push(
                qd, client.sga_alloc(b"\xff\xffgarbage"))
            yield from client.close(qd)
            results, _stats = yield from demi_kv_client(
                client, "10.0.0.2",
                [(OP_PUT, b"k", b"v"), (OP_GET, b"k", None)], proto="udp")
            return results

        server_libos, server, results = run_udp(bad_then_good)
        assert results == [None, (True, b"v")]
        assert server.requests_served == 2
        assert server_libos.tracer.get(
            "server.catnip.kv_malformed_requests") == 1

    def test_truncated_put_is_rejected_not_stored(self):
        # The original bug: a PUT cut short stored the partial value.
        # Now the truncated datagram is malformed and nothing lands.
        truncated = LegacyKvCodec().encode_request(
            Request(op="set", key=b"k", value=b"full-value"))[:-4]

        def body(client):
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 6379)
            yield from client.blocking_push(qd, client.sga_alloc(truncated))
            yield from client.close(qd)
            results, _stats = yield from demi_kv_client(
                client, "10.0.0.2", [(OP_GET, b"k", None)], proto="udp")
            return results

        server_libos, server, results = run_udp(body)
        assert results == [(False, None)]  # nothing stored, not garbage
        assert server.engine.puts == 0
        assert server_libos.tracer.get(
            "server.catnip.kv_malformed_requests") == 1
