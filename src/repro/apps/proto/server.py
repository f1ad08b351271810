"""One server, any codec: the protocol layer behind DemiEventLoop.

:class:`ProtoServer` is the section-4.4 application shape - a
callback-per-connection server on :class:`~repro.core.eventloop.
DemiEventLoop` - and the only stream server in the repo, with the
protocol factored out: pass ``RespCodec`` and it is a Redis; pass
``MemcachedCodec`` and it is a memcached; pass a legacy codec and it
speaks the repo's original binary formats.  The storage behind it is
equally pluggable: a store is anything with ``get(key)``, ``set(key,
value, ttl_ms)`` and ``delete(key)`` - :class:`KvEngineStore` adapts the
:class:`~repro.apps.kvstore.KvEngine`, and the TTL+LRU
:class:`~repro.apps.cache.LruTtlCache` is one as it stands.

Because the codec is incremental, the server is indifferent to how the
client chunked its bytes: one element may hold half a request (buffered)
or twenty pipelined ones (served in order, replies coalesced into one
push - the pipelining win).  A :class:`~repro.apps.proto.codec.
CodecError` is stream desync: the server counts it and closes that
connection; requests the codec *could* frame but not accept come back
as ``op == "invalid"`` and get the protocol's inline error reply.

:class:`ProtoService` holds the codec-independent request execution
(including CAS bookkeeping for memcached and the sharded deployment's
misroute accounting); :class:`repro.cluster.shard.ShardProtoServer` is
this server constructed per shard.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ...core.eventloop import DemiEventLoop
from ...sim.trace import LatencyStats
from ..steering import key_partition
from .codec import (ST_COUNT, ST_ERROR, ST_MISS, ST_PONG, ST_STORED,
                    ST_VALUE, Codec, CodecError, Request, Response)

__all__ = ["KvEngineStore", "ProtoServer"]


class KvEngineStore:
    """The :class:`KvEngine` hash table behind the store contract.

    The engine has no TTL notion; a TTL-carrying SET is accepted and the
    TTL ignored (memcached semantics for a backend that never expires).
    """

    def __init__(self, engine):
        self.engine = engine

    def get(self, key: bytes) -> Optional[bytes]:
        value = self.engine.get(key)
        return None if value is None else value.tobytes()

    def set(self, key: bytes, value: bytes, ttl_ms: int = 0) -> None:
        self.engine.put(key, value)

    def delete(self, key: bytes) -> bool:
        return self.engine.delete(key)


class ProtoService:
    """Codec-independent request execution against a store.

    Charges ``kv_parse_ns`` per request and ``kv_get_ns``/``kv_put_ns``
    per operation, and keeps the CAS version map the memcached binary
    protocol exposes.  ``shard_index``/``n_shards`` name the KV
    partition this instance owns when one runs per core (see
    :mod:`repro.cluster`).
    """

    def __init__(self, libos, store, shard_index: int = 0, n_shards: int = 1):
        self.libos = libos
        self.store = store
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._cas: Dict[bytes, int] = {}
        self._cas_counter = 0

    def apply(self, request: Request) -> Generator:
        """Sim-coroutine: execute one request; returns the Response."""
        libos = self.libos
        if (self.n_shards > 1 and request.key and key_partition(
                request.key, self.n_shards) != self.shard_index):
            # the client's flow steering and key partitioning disagree
            libos.counters.shard_misrouted_requests += 1
        yield libos.core.busy(libos.costs.kv_parse_ns)
        op = request.op
        libos.counters.proto_requests += 1
        if op == "invalid":
            libos.counters.proto_error_replies += 1
            return Response(status=ST_ERROR, message=request.error,
                            opaque=request.opaque, op=op)
        if op in ("ping", "noop"):
            return Response(status=ST_PONG, opaque=request.opaque, op=op)
        if op == "get":
            yield libos.core.busy(libos.costs.kv_get_ns)
            value = self.store.get(request.key)
            if value is None:
                return Response(status=ST_MISS, opaque=request.opaque, op=op)
            return Response(status=ST_VALUE, value=value,
                            cas=self._cas.get(request.key, 0),
                            opaque=request.opaque, op=op)
        if op == "set":
            yield libos.core.busy(libos.costs.kv_put_ns)
            self.store.set(request.key, request.value, request.ttl_ms)
            self._cas_counter += 1
            self._cas[request.key] = self._cas_counter
            return Response(status=ST_STORED, cas=self._cas_counter,
                            opaque=request.opaque, op=op)
        if op == "delete":
            keys = ([k for k, _ in request.pairs] if request.pairs
                    else [request.key])
            count = 0
            for key in keys:
                yield libos.core.busy(libos.costs.kv_get_ns)
                if self.store.delete(key):
                    self._cas.pop(key, None)
                    count += 1
            return Response(status=ST_COUNT, count=count,
                            opaque=request.opaque, op=op)
        if op == "mset":
            for key, value in request.pairs:
                yield libos.core.busy(libos.costs.kv_put_ns)
                self.store.set(key, value, 0)
                self._cas_counter += 1
                self._cas[key] = self._cas_counter
            return Response(status=ST_STORED, opaque=request.opaque, op=op)
        libos.counters.proto_error_replies += 1
        return Response(status=ST_ERROR, message="unsupported op %r" % op,
                        opaque=request.opaque, op=op)

    def handle(self, codec: Codec,
               data: bytes) -> Generator:
        """Sim-coroutine: feed *data*, serve every complete request.

        Returns ``(ok, reply_bytes)``.  ``ok`` is False on stream
        desync (either direction: an unparseable request, or a reply
        the codec cannot carry) - the caller must close the connection.
        Pipelined replies are coalesced into one byte string so a batch
        of N requests costs one push.
        """
        libos = self.libos
        try:
            requests = codec.feed(data)
        except CodecError:
            libos.counters.proto_decode_errors += 1
            return False, b""
        if not requests:
            libos.counters.proto_partial_feeds += 1
            return True, b""
        if len(requests) > 1:
            libos.counters.proto_pipeline_batches += 1
        out = bytearray()
        for request in requests:
            response = yield from self.apply(request)
            try:
                out += codec.encode(response)
            except CodecError:
                # This format has no wire shape for the reply (e.g. an
                # inline error on the legacy binary protocols): closing
                # is the only honest answer.
                libos.counters.proto_decode_errors += 1
                return False, bytes(out)
        return True, bytes(out)


class ProtoServer:
    """Any codec, any store, served through DemiEventLoop callbacks."""

    def __init__(self, libos, codec_factory: Callable[[], Codec],
                 store, port: int = 6390,
                 shard_index: int = 0, n_shards: int = 1):
        self.libos = libos
        self.codec_factory = codec_factory
        self.port = port
        self.loop = DemiEventLoop(libos)
        self.service = ProtoService(libos, store, shard_index, n_shards)
        #: application service time per served element: pop completion
        #: -> reply push completion (what C1 measures)
        self.service_stats = LatencyStats("kv-service")

    # -- the counters perfbench reads ------------------------------------
    @property
    def decode_errors(self) -> int:
        return self.libos.counters.proto_decode_errors

    @property
    def error_replies(self) -> int:
        return self.libos.counters.proto_error_replies

    def start(self) -> Generator:
        """Spawn-me: listen, then dispatch the event loop until stopped."""
        libos = self.libos
        listen_qd = yield from libos.socket()
        yield from libos.bind(listen_qd, self.port)
        yield from libos.listen(listen_qd)
        self.loop.add_accept_event(listen_qd, self._on_conn)
        yield from self.loop.run()

    def stop(self) -> None:
        self.loop.stop()

    def _on_conn(self, qd: int) -> None:
        libos = self.libos
        codec = self.codec_factory()  # per-connection incremental state
        libos.counters.proto_connections += 1

        def on_data(result):
            if result.error is not None:
                return  # connection gone; the loop retires the event
            service_start = libos.sim.now
            ok, reply = yield from self.service.handle(
                codec, result.sga.tobytes())
            if reply:
                yield from libos.blocking_push(qd, libos.sga_alloc(reply))
                self.service_stats.add(libos.sim.now - service_start)
            libos.sga_free(result.sga)
            libos.counters.shard_requests += 1
            if not ok:
                self.loop.remove(handle)
                yield from libos.close(qd)

        handle = self.loop.add_pop_event(qd, on_data)
