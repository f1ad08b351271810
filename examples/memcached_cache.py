#!/usr/bin/env python3
"""A memcached-like cache on the libevent-style event loop (section 4.4).

"In the future, we plan to implement a libevent-based Demikernel OS,
which would enable applications, like memcached, to achieve the benefits
of kernel-bypass transparently."  This example runs that application: a
callback-structured LRU+TTL cache server on DemiEventLoop over the DPDK
libOS, with a periodic timer sweeping expired entries.  It speaks RESP
(Redis's protocol; a TTL travels as ``SET key value PX ms``).

Run:  python examples/memcached_cache.py
"""

from repro.apps.cache import cache_server
from repro.apps.proto import ST_MISS, ST_VALUE, Request, RespCodec
from repro.bench.report import print_table
from repro.testbed import make_dpdk_libos_pair

PORT = 11211


def cache_client(libos, requests):
    """Closed loop: one request, then its reply."""
    codec = RespCodec()
    qd = yield from libos.socket()
    yield from libos.connect(qd, "10.0.0.2", PORT)
    replies = []
    for request in requests:
        yield from libos.blocking_push(
            qd, libos.sga_alloc(codec.encode_request(request)))
        result = yield from libos.blocking_pop(qd)
        replies += codec.feed_responses(result.sga.tobytes())
    yield from libos.close(qd)
    return replies


def SET(key, value, ttl_ms=0):
    return Request(op="set", key=key, value=value, ttl_ms=ttl_ms)


def GET(key):
    return Request(op="get", key=key)


def main():
    world, client_libos, server_libos = make_dpdk_libos_pair()
    server = cache_server(server_libos, port=PORT, max_entries=3)
    stats = server.service.store.stats
    world.sim.spawn(server.start(), name="cache-server")

    def scenario():
        # Fill past capacity: LRU eviction kicks in.
        replies = yield from cache_client(client_libos, [
            SET(b"alpha", b"1"),
            SET(b"beta", b"2", ttl_ms=1),   # 1 ms TTL
            SET(b"gamma", b"3"),
            SET(b"delta", b"4"),            # evicts alpha (LRU)
            GET(b"alpha"),
            GET(b"gamma"),
        ])
        # Outlive beta's TTL; the loop's timer sweep collects it.
        yield world.sim.timeout(3_000_000)
        replies += yield from cache_client(client_libos, [GET(b"beta")])
        return replies

    proc = world.sim.spawn(scenario())
    world.sim.run_until_complete(proc, limit=10**13)
    server.stop()

    replies = proc.value
    assert replies[4].status == ST_MISS   # alpha evicted
    assert (replies[5].status, replies[5].value) == (ST_VALUE, b"3")
    assert replies[6].status == ST_MISS   # beta expired

    print_table(
        "cache server on DemiEventLoop",
        ["stat", "value"],
        [
            ("sets", stats.sets),
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("LRU evictions", stats.evictions),
            ("TTL expirations", stats.expirations),
            ("event-loop dispatches", server.loop.dispatches),
            ("timer fires", server.loop.timer_fires),
        ],
    )
    print("every request arrived as one atomic element, one callback, "
          "one wake-up.")


if __name__ == "__main__":
    main()
