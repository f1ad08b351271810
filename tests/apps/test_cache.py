"""The LRU+TTL cache behind ProtoServer, under every cache-capable codec.

There is no cache-specific server: ``cache_server`` is ``ProtoServer``
over an ``LruTtlCache`` plus a sweep timer on its event loop.  The
cases below run once per wire format, so the policy is checked
independently of the protocol.
"""

import pytest

from repro.apps.cache import SWEEP_INTERVAL_NS, LruTtlCache, cache_server
from repro.apps.proto import MemcachedCodec, ProtoServer, RespCodec
from repro.apps.proto.codec import (ST_COUNT, ST_MISS, ST_PONG, ST_STORED,
                                    ST_VALUE, Request)

from ..conftest import chunk_client, make_dpdk_libos_pair, proto_client

PORT = 11211
ALL_CODECS = [RespCodec, MemcachedCodec]
#: the smallest TTL each wire carries: RESP's PX is in ms, memcached-binary
#: carries expiry in whole seconds - the TTL cases run in these units
TTL_UNIT_MS = {RespCodec: 1, MemcachedCodec: 1000}


def by_name(codec_cls):
    return codec_cls.name


def SET(key, value, ttl_ms=0):
    return Request(op="set", key=key, value=value, ttl_ms=ttl_ms)


def GET(key):
    return Request(op="get", key=key)


def DELETE(key):
    return Request(op="delete", key=key)


HIT = ST_VALUE
STORED = ST_STORED
DELETED = "deleted"
MISS = ST_MISS


def outcome(reply):
    """(kind, value) with each protocol's "nothing there" folded to MISS."""
    if reply.status == ST_VALUE:
        return HIT, reply.value
    if reply.status == ST_COUNT:
        return (DELETED if reply.count else MISS), None
    return reply.status, None


def cache_client(libos, codec_cls, requests):
    """Closed loop: one request, then its reply; returns the outcomes."""
    replies = yield from proto_client(libos, codec_cls, requests, port=PORT)
    return [outcome(reply) for reply in replies]


def start_server(codec_cls, max_entries=1024):
    w, client, server_libos = make_dpdk_libos_pair()
    if codec_cls is RespCodec:
        server = cache_server(server_libos, port=PORT,
                              max_entries=max_entries)
    else:
        cache = LruTtlCache(lambda: server_libos.sim.now, max_entries)
        server = ProtoServer(server_libos, codec_cls, cache, port=PORT)
        server.loop.add_timer(SWEEP_INTERVAL_NS, cache.sweep_expired)
    w.sim.spawn(server.start(), name="cache-server")
    return w, client, server, server.service.store


def run_requests(codec_cls, requests, max_entries=1024):
    w, client, server, cache = start_server(codec_cls, max_entries)
    cp = w.sim.spawn(cache_client(client, codec_cls, requests))
    w.sim.run_until_complete(cp, limit=10**13)
    server.stop()
    assert server.decode_errors == 0
    return cache, cp.value


@pytest.mark.parametrize("codec_cls", ALL_CODECS, ids=by_name)
class TestBasicOps:
    def test_set_then_get(self, codec_cls):
        cache, replies = run_requests(codec_cls, [
            SET(b"k", b"cached-value"),
            GET(b"k"),
        ])
        assert replies[0] == (STORED, None)
        assert replies[1] == (HIT, b"cached-value")
        assert cache.stats.hits == 1

    def test_get_missing_misses(self, codec_cls):
        cache, replies = run_requests(codec_cls, [GET(b"nope")])
        assert replies == [(MISS, None)]
        assert cache.stats.misses == 1

    def test_delete(self, codec_cls):
        _cache, replies = run_requests(codec_cls, [
            SET(b"k", b"v"),
            DELETE(b"k"),
            GET(b"k"),
            DELETE(b"k"),
        ])
        assert replies[1] == (DELETED, None)
        assert replies[2] == (MISS, None)
        assert replies[3] == (MISS, None)

    def test_overwrite(self, codec_cls):
        _cache, replies = run_requests(codec_cls, [
            SET(b"k", b"old"),
            SET(b"k", b"new"),
            GET(b"k"),
        ])
        assert replies[2] == (HIT, b"new")

    def test_empty_value_reads_back_empty(self, codec_cls):
        _cache, replies = run_requests(codec_cls, [SET(b"k", b""), GET(b"k")])
        assert replies == [(STORED, None), (HIT, b"")]


@pytest.mark.parametrize("codec_cls", ALL_CODECS, ids=by_name)
class TestLru:
    def test_eviction_at_capacity(self, codec_cls):
        requests = [SET(b"key-%d" % i, b"v") for i in range(6)]
        requests.append(GET(b"key-0"))  # evicted (oldest)
        requests.append(GET(b"key-5"))  # still present
        cache, replies = run_requests(codec_cls, requests, max_entries=4)
        assert cache.stats.evictions == 2
        assert replies[-2] == (MISS, None)
        assert replies[-1] == (HIT, b"v")

    def test_get_refreshes_lru_position(self, codec_cls):
        requests = [
            SET(b"a", b"1"),
            SET(b"b", b"2"),
            GET(b"a"),          # touch a: b becomes LRU
            SET(b"c", b"3"),    # evicts b
            GET(b"a"),
            GET(b"b"),
        ]
        _cache, replies = run_requests(codec_cls, requests, max_entries=2)
        assert replies[-2] == (HIT, b"1")
        assert replies[-1] == (MISS, None)


@pytest.mark.parametrize("codec_cls", ALL_CODECS, ids=by_name)
class TestTtl:
    def test_expired_entry_misses_on_access(self, codec_cls):
        w, client, server, cache = start_server(codec_cls)
        unit_ms = TTL_UNIT_MS[codec_cls]

        def scenario():
            replies = yield from cache_client(
                client, codec_cls, [SET(b"t", b"v", ttl_ms=unit_ms)])
            yield w.sim.timeout(2 * unit_ms * 1_000_000)  # 2 units > TTL
            replies += yield from cache_client(client, codec_cls,
                                               [GET(b"t")])
            return replies

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value[0] == (STORED, None)
        assert p.value[1] == (MISS, None)
        assert cache.stats.expirations >= 1

    def test_timer_sweep_removes_expired_entries(self, codec_cls):
        w, client, server, cache = start_server(codec_cls)
        unit_ms = TTL_UNIT_MS[codec_cls]

        def scenario():
            yield from cache_client(client, codec_cls, [
                SET(b"short", b"v", ttl_ms=unit_ms),
                SET(b"forever", b"v"),
            ])
            # Let the periodic sweep (1 ms cadence) run past the TTL.
            yield w.sim.timeout(5 * unit_ms * 1_000_000)
            return list(cache._entries)

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value == [b"forever"]  # only the TTL-free entry survives
        assert cache.stats.expirations == 1
        assert server.loop.timer_fires >= 4
        assert server.libos.counters.shard_wasted_wakeups == 0

    def test_ttl_zero_never_expires(self, codec_cls):
        w, client, server, _cache = start_server(codec_cls)

        def scenario():
            yield from cache_client(client, codec_cls,
                                    [SET(b"k", b"v", ttl_ms=0)])
            yield w.sim.timeout(10 * TTL_UNIT_MS[codec_cls] * 1_000_000)
            return (yield from cache_client(client, codec_cls, [GET(b"k")]))

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value == [(HIT, b"v")]


@pytest.mark.parametrize("codec_cls", ALL_CODECS, ids=by_name)
class TestMultipleClients:
    def test_two_connections_share_the_cache(self, codec_cls):
        w, client, server, _cache = start_server(codec_cls)

        wp = w.sim.spawn(cache_client(client, codec_cls,
                                      [SET(b"shared", b"data")]))
        w.sim.run_until_complete(wp, limit=10**13)
        rp = w.sim.spawn(cache_client(client, codec_cls, [GET(b"shared")]))
        w.sim.run_until_complete(rp, limit=10**13)
        server.stop()
        assert rp.value == [(HIT, b"data")]


class TestCacheServerSpeaksResp:
    def test_hand_written_resp_commands(self):
        # cache_server's wire is RESP: PX and EX expiries both land in the
        # cache in ms, and a PING is answered by the same server.
        w, client, server, cache = start_server(RespCodec)
        wire = [b"*5\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n"
                b"$2\r\nPX\r\n$3\r\n250\r\n",
                b"*5\r\n$3\r\nset\r\n$1\r\nb\r\n$1\r\n2\r\n"
                b"$2\r\nex\r\n$1\r\n1\r\n",
                b"*2\r\n$3\r\nGET\r\n$1\r\na\r\n",
                b"*1\r\n$4\r\nPING\r\n"]
        cp = w.sim.spawn(chunk_client(client, RespCodec, wire, 4, port=PORT))
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        assert [r.status for r in cp.value] == [ST_STORED, ST_STORED,
                                                ST_VALUE, ST_PONG]
        assert cp.value[2].value == b"1"
        ttl_gap_ns = (cache._entries[b"b"].expires_at
                      - cache._entries[b"a"].expires_at)
        assert ttl_gap_ns == pytest.approx(750_000_000, abs=1_000_000)
