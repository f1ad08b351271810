"""Real wire protocols on Demikernel queues (the section-4.4 proof point).

One incremental :class:`~repro.apps.proto.codec.Codec` contract, four
implementations - RESP2 (Redis), memcached-binary, and the repo's two
legacy binary formats - behind one :class:`~repro.apps.proto.server.
ProtoServer` that runs unchanged on any libOS and, via
:class:`repro.cluster.shard.ShardProtoServer`, on the sharded cluster
path.  See docs/protocols.md.
"""

from .codec import (ST_COUNT, ST_ERROR, ST_MISS, ST_PONG, ST_STORED,
                    ST_VALUE, Codec, CodecError, Request, Response)
from .legacy import LegacyCacheCodec, LegacyKvCodec
from .memcached import MemcachedCodec
from .resp import RespCodec
from .server import KvEngineStore, ProtoServer, ProtoService

#: registry name -> codec class (loadgen and workloads look these up)
CODECS = {
    RespCodec.name: RespCodec,
    MemcachedCodec.name: MemcachedCodec,
    LegacyKvCodec.name: LegacyKvCodec,
    LegacyCacheCodec.name: LegacyCacheCodec,
}

__all__ = [
    "Codec",
    "CodecError",
    "Request",
    "Response",
    "RespCodec",
    "MemcachedCodec",
    "LegacyKvCodec",
    "LegacyCacheCodec",
    "ProtoServer",
    "ProtoService",
    "KvEngineStore",
    "CODECS",
    "ST_STORED",
    "ST_VALUE",
    "ST_MISS",
    "ST_COUNT",
    "ST_PONG",
    "ST_ERROR",
]
