"""ProtoServer integration: real protocols on real libOS pairs.

The tentpole claim: one server body speaks RESP or memcached-binary
(or the legacy formats) against any libOS and, via ShardProtoServer,
against the sharded cluster - only the codec changes.  These tests run
actual connections end to end: pipelined batches, byte-split writes,
inline protocol errors vs. stream desync, TTL through the cache store,
and RSS-steered sharded serving.
"""

import pytest

from repro.apps.cache import LruTtlCache
from repro.apps.kvstore import KvEngine
from repro.apps.proto import (KvEngineStore, LegacyKvCodec, MemcachedCodec,
                              ProtoServer, RespCodec)
from repro.apps.proto.codec import (ST_COUNT, ST_ERROR, ST_MISS, ST_PONG,
                                    ST_STORED, ST_VALUE, Request)
from repro.apps.steering import key_partition
from repro.cluster.client import src_port_for_queue
from repro.cluster.shard import ShardProtoServer
from repro.testbed import make_sharded_kv_world

from ..conftest import (chunk_client, make_dpdk_libos_pair,
                        make_posix_libos_pair, make_rdma_libos_pair)

PORT = 6390
SHARD_PORT = 6379

#: the canonical four-request script every protocol must serve
SCRIPT = [
    Request(op="set", key=b"alpha", value=b"0123456789", opaque=1),
    Request(op="get", key=b"alpha", opaque=2),
    Request(op="get", key=b"missing", opaque=3),
    Request(op="ping", opaque=4),
]
SCRIPT_STATUSES = [ST_STORED, ST_VALUE, ST_MISS, ST_PONG]


def serve(make_pair, codec_cls, chunks, n_replies, store="kv"):
    """Full round trip: ProtoServer + scripted client on a libOS pair."""
    w, client, server_libos = make_pair()
    if store == "kv":
        backing = KvEngineStore(KvEngine(server_libos.host, name="test.kv"))
    else:
        backing = LruTtlCache(lambda: server_libos.sim.now)
    server = ProtoServer(server_libos, codec_cls, backing, port=PORT)
    sp = w.sim.spawn(server.start(), name="proto-server")
    cp = w.sim.spawn(chunk_client(client, codec_cls, chunks, n_replies,
                                  port=PORT))
    w.sim.run_until_complete(cp, limit=10**13)
    server.stop()
    if sp.alive:
        sp.interrupt("test done")
    w.run(until=w.sim.now + 5_000_000)
    t = server_libos.qtokens
    assert t.created == t.completed + t.cancelled + t.in_flight
    return server, cp.value


def wire_for(codec_cls, requests=SCRIPT):
    codec = codec_cls()
    return b"".join(codec.encode_request(r) for r in requests)


def chunked(wire, size):
    return [wire[i:i + size] for i in range(0, len(wire), size)]


class TestProtoServerPairs:
    """Same script, every codec x libOS combination, pipelined + split."""

    @pytest.mark.parametrize("codec_cls", [RespCodec, MemcachedCodec],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("make_pair,libos_id",
                             [(make_dpdk_libos_pair, "dpdk"),
                              (make_posix_libos_pair, "posix")],
                             ids=["dpdk", "posix"])
    def test_pipelined_script(self, codec_cls, make_pair, libos_id):
        # All four requests in ONE push: the server must decode the
        # batch, serve in order, and may coalesce the replies.
        server, replies = serve(make_pair, codec_cls,
                                [wire_for(codec_cls)], len(SCRIPT))
        assert [r.status for r in replies] == SCRIPT_STATUSES
        assert replies[1].value == b"0123456789"
        assert server.requests_served == len(SCRIPT)
        assert server.decode_errors == 0

    @pytest.mark.parametrize("codec_cls", [RespCodec, MemcachedCodec],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("make_pair,libos_id",
                             [(make_dpdk_libos_pair, "dpdk"),
                              (make_posix_libos_pair, "posix")],
                             ids=["dpdk", "posix"])
    def test_byte_split_script(self, codec_cls, make_pair, libos_id):
        # The same wire bytes delivered three bytes at a time: the
        # incremental codec must reassemble across pops.
        server, replies = serve(make_pair, codec_cls,
                                chunked(wire_for(codec_cls), 3), len(SCRIPT))
        assert [r.status for r in replies] == SCRIPT_STATUSES
        assert replies[1].value == b"0123456789"
        assert server.decode_errors == 0

    def test_memcached_opaque_mirrored(self):
        _server, replies = serve(make_dpdk_libos_pair, MemcachedCodec,
                                 [wire_for(MemcachedCodec)], len(SCRIPT))
        assert [r.opaque for r in replies] == [1, 2, 3, 4]

    def test_legacy_kv_codec_behind_proto_server(self):
        # The ported legacy format runs on the same server body.
        script = [Request(op="set", key=b"k", value=b"v"),
                  Request(op="get", key=b"k")]
        server, replies = serve(make_dpdk_libos_pair, LegacyKvCodec,
                                [wire_for(LegacyKvCodec, script)],
                                len(script))
        # Legacy-kv acks a PUT as OK+empty value on the wire.
        assert replies[0].status in (ST_STORED, ST_VALUE)
        assert replies[1].value == b"v"
        assert server.requests_served == 2


class TestErrorPolicy:
    def test_resp_inline_error_keeps_connection(self):
        # Unknown command -> -ERR reply, and the NEXT request still
        # gets served: framing survived, only semantics failed.
        codec = RespCodec()
        wire = (codec.encode_request(Request(op="set", key=b"k",
                                             value=b"v"))
                + b"*1\r\n$5\r\nBLPOP\r\n"
                + codec.encode_request(Request(op="get", key=b"k")))
        server, replies = serve(make_dpdk_libos_pair, RespCodec, [wire], 3)
        assert [r.status for r in replies] == [ST_STORED, ST_ERROR, ST_VALUE]
        assert "unknown command" in replies[1].message
        assert server.error_replies == 1
        assert server.decode_errors == 0

    def test_memcached_bad_magic_closes_connection(self):
        # A wrong magic byte is desync: no reply, connection closed,
        # decode error counted.
        server, replies = serve(make_dpdk_libos_pair, MemcachedCodec,
                                [b"\x42" + b"\x00" * 23], 1)
        assert replies == []
        assert server.decode_errors == 1
        assert server.requests_served == 0

    def test_resp_desync_after_valid_request(self):
        # First request serves, then garbage kills the stream.
        wire = RespCodec().encode_request(Request(op="ping"))
        server, replies = serve(make_dpdk_libos_pair, RespCodec,
                                [wire, b"GARBAGE\r\n"], 2)
        assert [r.status for r in replies] == [ST_PONG]
        assert server.decode_errors == 1


class TestConnectionsArriveWhileParked:
    """A connection accepted while the dispatcher is parked on another
    connection's pop must be armed at once, not when that one next
    speaks (the old acceptor registered events the loop never saw)."""

    @pytest.mark.parametrize("codec_cls,store",
                             [(RespCodec, "kv"), (MemcachedCodec, "cache")],
                             ids=["resp", "memcached-cache"])
    def test_idle_connection_does_not_delay_the_next_one(self, codec_cls,
                                                          store):
        w, client, server_libos = make_dpdk_libos_pair()
        if store == "kv":
            backing = KvEngineStore(KvEngine(server_libos.host))
        else:
            backing = LruTtlCache(lambda: server_libos.sim.now)
        server = ProtoServer(server_libos, codec_cls, backing, port=PORT)
        w.sim.spawn(server.start(), name="proto-server")
        wire = codec_cls().encode_request(Request(op="get", key=b"k"))
        a_served = w.sim.completion("a-served")

        def timed_request(qd):
            start = w.sim.now
            yield from client.blocking_push(qd, client.sga_alloc(wire))
            result = yield from client.blocking_pop(qd)
            assert result.error is None
            return w.sim.now - start

        def conn_a():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", PORT)
            rtt = yield from timed_request(qd)
            a_served.trigger()
            yield w.sim.timeout(50_000_000)   # idle, connection open
            yield from timed_request(qd)
            yield from client.close(qd)
            return rtt

        def conn_b():
            yield a_served
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", PORT)
            rtt = yield from timed_request(qd)
            yield from client.close(qd)
            return rtt

        pa, pb = w.sim.spawn(conn_a()), w.sim.spawn(conn_b())
        w.sim.run_until_complete(pa, limit=10**13)
        w.sim.run_until_complete(pb, limit=10**13)
        server.stop()
        assert pb.value <= 2 * pa.value
        assert server.requests_served == 3
        assert server.loop.wasted_wakeups == 0


PAIRS = {"dpdk": (make_dpdk_libos_pair, "10.0.0.2"),
         "posix": (make_posix_libos_pair, "10.0.0.2"),
         "rdma": (make_rdma_libos_pair, "server-rdma")}


def idle_connections(flavor, n_conns):
    """*n_conns* clients connect and close, sending nothing; the server
    is stopped once they are gone.  Returns (server, its libOS)."""
    make_pair, addr = PAIRS[flavor]
    w, client, server_libos = make_pair()
    server = ProtoServer(server_libos, RespCodec,
                         KvEngineStore(KvEngine(server_libos.host)),
                         port=PORT)
    sp = w.sim.spawn(server.start(), name="proto-server")

    def connect_and_close():
        qd = yield from client.socket()
        yield from client.connect(qd, addr, PORT)
        yield from client.close(qd)

    for _ in range(n_conns):
        w.sim.run_until_complete(w.sim.spawn(connect_and_close()),
                                 limit=10**13)
    w.run(until=w.sim.now + 1_000_000)
    server.stop()
    w.sim.run_until_complete(sp, limit=w.sim.now + 1_000_000)
    assert server.connections_accepted == n_conns
    return server, server_libos


class TestConnectionsLeaveNothingBehind:
    def test_an_accepted_connection_leaves_no_buffer(self):
        live = [idle_connections("dpdk", n)[1].mm.live_buffer_count
                for n in (1, 4)]
        assert live[0] == live[1]

    @pytest.mark.parametrize("flavor", sorted(PAIRS))
    def test_a_stopped_server_leaves_no_pop_in_flight(self, flavor):
        # RDMA has no FIN: a connection its client closed still has its
        # pop armed when the server stops.
        server, server_libos = idle_connections(flavor, 3)
        t = server_libos.qtokens
        assert t.in_flight == 0 and t.identity_ok
        assert server.loop.wasted_wakeups == 0 == server.loop.cross_wakeups


def ttl_client(libos, port=PORT):
    codec = RespCodec()
    qd = yield from libos.socket()
    yield from libos.connect(qd, "10.0.0.2", port)

    def rpc(request):
        wire = codec.encode_request(request)
        yield from libos.blocking_push(qd, libos.sga_alloc(wire))
        while True:
            result = yield from libos.blocking_pop(qd)
            replies = codec.feed_responses(result.sga.tobytes())
            if replies:
                return replies[0]

    stored = yield from rpc(Request(op="set", key=b"k", value=b"v",
                                    ttl_ms=5))
    hit = yield from rpc(Request(op="get", key=b"k"))
    yield libos.sim.timeout(10_000_000)  # 10 ms >> the 5 ms TTL
    expired = yield from rpc(Request(op="get", key=b"k"))
    yield from libos.close(qd)
    return stored, hit, expired


class TestTtlThroughCacheStore:
    def test_resp_px_expiry_against_lru_cache(self):
        w, client, server_libos = make_dpdk_libos_pair()
        cache = LruTtlCache(lambda: server_libos.sim.now)
        server = ProtoServer(server_libos, RespCodec, cache, port=PORT)
        sp = w.sim.spawn(server.start(), name="proto-server")
        cp = w.sim.spawn(ttl_client(client))
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        if sp.alive:
            sp.interrupt("test done")
        w.run(until=w.sim.now + 5_000_000)
        stored, hit, expired = cp.value
        assert stored.status == ST_STORED
        assert (hit.status, hit.value) == (ST_VALUE, b"v")
        assert expired.status == ST_MISS
        assert cache.stats.expirations == 1


def shard_client(libos, codec_cls, shard, n_shards, keys, port=SHARD_PORT):
    """Closed-loop SET+GET of shard-owned keys over a steered connection."""
    codec = codec_cls()
    qd = yield from libos.socket()
    sp = src_port_for_queue(libos.ip, "10.0.0.100", shard, n_shards, port)
    yield from libos.connect(qd, "10.0.0.100", port, src_port=sp)

    replies = []
    for key in keys:
        for request in (Request(op="set", key=key, value=b"v:" + key),
                        Request(op="get", key=key)):
            wire = codec.encode_request(request)
            yield from libos.blocking_push(qd, libos.sga_alloc(wire))
            got = []
            while not got:
                result = yield from libos.blocking_pop(qd)
                got = codec.feed_responses(result.sga.tobytes())
            replies.extend(got)
    yield from libos.close(qd)
    return replies


class TestShardedProtoServer:
    @pytest.mark.parametrize("codec_cls", [RespCodec, MemcachedCodec],
                             ids=lambda c: c.name)
    def test_two_shard_cluster_serves_protocol(self, codec_cls):
        n_shards = 2
        w, server, clients = make_sharded_kv_world(
            n_shards, seed=7, port=SHARD_PORT,
            server_cls=ShardProtoServer,
            server_kwargs={"codec_factory": codec_cls})
        server.start()
        # Each client talks only to its own shard with shard-owned keys.
        owned = [[k for k in (b"key-%04d" % j for j in range(64))
                  if key_partition(k, n_shards) == shard][:6]
                 for shard in range(n_shards)]
        procs = [w.sim.spawn(
            shard_client(clients[shard], codec_cls, shard, n_shards,
                         owned[shard]),
            name="shard-client%d" % shard) for shard in range(n_shards)]
        for proc in procs:
            w.sim.run_until_complete(proc, limit=10**13)
        server.stop()
        w.run(until=w.sim.now + 5_000_000)

        for shard, proc in enumerate(procs):
            replies = proc.value
            assert len(replies) == 2 * len(owned[shard])
            for i, key in enumerate(owned[shard]):
                assert replies[2 * i].status == ST_STORED
                assert (replies[2 * i + 1].status,
                        replies[2 * i + 1].value) \
                    == (ST_VALUE, b"v:" + key)
        # The steering contract holds under a real protocol: every
        # request landed on its owner, no shard woke for another's work.
        assert server.misrouted == 0
        assert server.wasted_wakeups == 0
        assert server.cross_wakeups == 0
        assert server.decode_errors == 0
        assert server.requests_served == sum(2 * len(k) for k in owned)
        assert server.qtoken_identity_ok()
