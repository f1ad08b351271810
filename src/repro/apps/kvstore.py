"""A Redis-like in-memory key-value store (the paper's running example).

One storage engine (:class:`KvEngine`) and one binary wire format
(:class:`repro.apps.proto.legacy.LegacyKvCodec`), reached three ways:

* over a stream connection the server is :class:`repro.apps.proto.
  server.ProtoServer` with a :class:`~repro.apps.proto.server.
  KvEngineStore` - there is no KV-specific stream server;
  :func:`demi_kv_client` is the closed-loop client for it;
* :class:`UdpKvServer` - one datagram per request, replies leave by
  ``push_to`` as zero-copy sgas (the reply's value segment *is* the
  stored segment), optionally fronted by the NIC-resident
  :class:`KvNicOffload` GET program (claim C6);
* :func:`posix_kv_server` - the same engine behind kernel sockets, with
  the copies and syscalls that entails (the baseline C1/C2 compare
  against).

The engine follows the section-4.5 PUT pattern - allocate a fresh value
buffer and swap the pointer, never update in place - so free-protection
makes the old buffer safe to free even mid-DMA.  It stores each value as
an :class:`~repro.core.types.SgaSegment` of its buffer, so a value keeps
its own length: a buffer is never empty, an empty value is.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..core.api import LibOS
from ..core.eventloop import DemiEventLoop
from ..core.types import DemiError, Sga, SgaSegment
from ..kernelos.kernel import Kernel
from ..netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from ..netstack.framing import Deframer, FramingError, frame_message
from ..netstack.ipv4 import PROTO_UDP, Ipv4Packet
from ..netstack.packet import bytes_to_ip, bytes_to_mac, ip_to_bytes
from ..netstack.udp import UdpDatagram
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from .proto.codec import (ST_MISS, ST_STORED, ST_VALUE, CodecError, Request,
                          Response)
from .proto.legacy import LegacyKvCodec
from .steering import key_partition

__all__ = [
    "KvEngine",
    "UdpKvServer",
    "KvNicOffload",
    "posix_kv_server",
    "demi_kv_client",
    "posix_kv_client",
    "kv_workload",
    "op_request",
    "get_result",
]

#: operation tags of the ``(op, key, value)`` workload tuples
OP_GET = ord("G")
OP_PUT = ord("P")


def op_request(op: int, key: bytes, value: Optional[bytes]) -> Request:
    """The codec-level request for one ``(op, key, value)`` workload op."""
    if op == OP_PUT:
        return Request(op="set", key=key, value=value)
    return Request(op="get", key=key)


def get_result(reply: Response) -> Tuple[bool, Optional[bytes]]:
    """A GET's ``(found, value)`` as the closed-loop clients report it."""
    return (True, reply.value) if reply.status == ST_VALUE else (False, None)


# ---------------------------------------------------------------------------
# The storage engine (shared by both frontends)
# ---------------------------------------------------------------------------

class KvEngine:
    """Hash table of key -> value segment with Redis-like costs."""

    def __init__(self, host, name: str = "kv"):
        self.host = host
        self.mm = host.mm
        self.costs = host.costs
        self.tracer = host.tracer
        self.name = name
        self._table: Dict[bytes, SgaSegment] = {}

    def parse_cost(self) -> int:
        return self.costs.kv_parse_ns

    def get(self, key: bytes) -> Optional[SgaSegment]:
        """GET work (hash lookup); the value is shared, not copied."""
        return self._table.get(key)

    def put(self, key: bytes, value: bytes) -> SgaSegment:
        """The section-4.5 pattern: new buffer, pointer swap, free old.

        The old buffer may still be referenced by an in-flight zero-copy
        GET response; free-protection defers its deallocation until the
        device lets go - no coordination needed here.
        """
        new_buf = self.mm.alloc(max(1, len(value)))
        new_buf.write(0, value)
        stored = SgaSegment(new_buf, 0, len(value))
        old = self._table.get(key)
        self._table[key] = stored
        if old is not None and not old.buf.freed:
            self.mm.free(old.buf)
        return stored

    def delete(self, key: bytes) -> bool:
        """Remove *key*; same pointer-swap discipline as :meth:`put`.

        The freed buffer may still back an in-flight zero-copy GET
        response; free-protection covers that window.
        """
        stored = self._table.pop(key, None)
        if stored is None:
            return False
        if not stored.buf.freed:
            self.mm.free(stored.buf)
        return True

    def service_cost(self, op: str) -> int:
        """CPU for one decoded request's ``op`` (``"set"`` or ``"get"``)."""
        return self.costs.kv_put_ns if op == "set" else self.costs.kv_get_ns

    def __len__(self) -> int:
        return len(self._table)


# ---------------------------------------------------------------------------
# The closed-loop Demikernel client (any libOS, TCP/RDMA stream or UDP)
# ---------------------------------------------------------------------------

def demi_kv_client(libos: LibOS, server_addr: str,
                   operations: Sequence[Tuple[int, bytes, Optional[bytes]]],
                   port: int = 6379,
                   stats: Optional[LatencyStats] = None,
                   proto: Optional[str] = None,
                   src_port: Optional[int] = None,
                   codec=None) -> Generator:
    """Run (op, key, value) operations; returns (results, stats).

    *proto* picks the socket kind (``"udp"`` for :class:`UdpKvServer`;
    default: the libOS's stream socket).  *src_port* pins the source
    port, which is how a client steers its flow onto one shard's RX
    queue (:func:`repro.cluster.client.src_port_for_queue`).  *codec*
    is the wire protocol (default: a fresh :class:`LegacyKvCodec`).
    """
    stats = stats if stats is not None else LatencyStats("kv-rtt")
    codec = codec if codec is not None else LegacyKvCodec()
    qd = yield from (libos.socket() if proto is None
                     else libos.socket(proto))
    if src_port is None:
        yield from libos.connect(qd, server_addr, port)
    else:
        yield from libos.connect(qd, server_addr, port, src_port=src_port)
    results = []
    for op, key, value in operations:
        request = codec.encode_request(op_request(op, key, value))
        start = libos.sim.now
        yield from libos.blocking_push(qd, libos.sga_alloc(request))
        replies: List[Response] = []
        while not replies:
            result = yield from libos.blocking_pop(qd)
            if result.error is not None:
                raise DemiError("kv connection lost: %s" % result.error)
            replies = codec.feed_responses(result.sga.tobytes())
            libos.sga_free(result.sga)
        stats.add(libos.sim.now - start)
        results.append(get_result(replies[0]) if op == OP_GET else None)
    yield from libos.close(qd)
    return results, stats


# ---------------------------------------------------------------------------
# UDP frontend + the NIC-resident GET path (claim C6, FlexNIC-style)
# ---------------------------------------------------------------------------

class UdpKvServer:
    """The KV engine behind a UDP socket (one datagram = one request).

    This is the host half of the offloaded deployment: with a
    :class:`KvNicOffload` program installed on the NIC, short GETs are
    answered on the device and only PUTs / oversized GETs / punted
    traffic ever reach this loop.  It also runs standalone as the
    un-offloaded baseline.
    """

    def __init__(self, libos: LibOS, port: int = 6379):
        self.libos = libos
        self.engine = KvEngine(libos.host, name=libos.name + ".kv")
        self.port = port
        self.codec = LegacyKvCodec()
        self.loop = DemiEventLoop(libos)
        self.requests_served = 0
        self.service_stats = LatencyStats("kv-service")

    def stop(self) -> None:
        self.loop.stop()

    def run(self) -> Generator:
        """Spawn-me: bind, then serve each datagram until stopped."""
        libos = self.libos
        qd = yield from libos.socket("udp")
        yield from libos.bind(qd, self.port)
        self.loop.add_pop_event(qd, lambda result: self._serve(qd, result))
        yield from self.loop.run()
        return self.requests_served

    def _serve(self, qd: int, result) -> Generator:
        libos = self.libos
        if result.error is not None:
            return  # the socket is gone; the loop retires the event
        engine = self.engine
        codec = self.codec
        service_start = libos.sim.now
        yield libos.core.busy(engine.parse_cost())
        try:
            request = codec.decode_message(result.sga.tobytes())
        except CodecError:
            # UDP has no stream to desync: drop the datagram and move on.
            libos.counters.kv_malformed_requests += 1
            return
        yield libos.core.busy(engine.service_cost(request.op))
        if request.op == "set":
            engine.put(request.key, request.value)
            reply = libos.sga_alloc(codec.encode(Response(ST_STORED)))
        else:
            value = engine.get(request.key)
            if value is None:
                reply = libos.sga_alloc(codec.encode(Response(ST_MISS)))
            else:
                # Zero-copy response: header segment + the stored value
                # segment itself as the second segment.
                header = codec.value_header(value.nbytes)
                header_buf = libos.mm.alloc(len(header))
                header_buf.write(0, header)
                reply = Sga([SgaSegment(header_buf), value])
        yield from libos.wait(libos.push_to(qd, reply, result.value))
        self.service_stats.add(libos.sim.now - service_start)
        self.requests_served += 1


#: the largest value the NIC program answers on the device
INLINE_VALUE_LIMIT = 1024


class KvNicOffload:
    """A NIC-resident filter/map/steer program for the KV GET hot path.

    The program runs on the NIC's offload engine for every arriving
    frame (``DpdkNic.install_rx_program``) and implements the paper's
    C6 pipeline in three stages:

    * **filter** - is this frame a KV request for our UDP port?  If not,
      punt to the normal RSS path (``offload_kv_punts``).
    * **map** - parse the request and hash the key.  A short GET whose
      value fits ``INLINE_VALUE_LIMIT`` is answered entirely on the
      device: the engine fetches the value buffer over DMA (charged to
      the *device* pipeline, zero host CPU) and transmits the reply
      frame directly (``offload_kv_hits`` / ``offload_kv_misses``).
    * **steer** - PUTs and oversized GETs go to the RX queue of the
      shard that owns the key (``key_partition``, the same function the
      host uses), overriding flow-tuple RSS (``offload_kv_steered``).

    The engine's value table is host memory shared with the
    :class:`KvEngine`; the device reads it zero-copy, exactly like a
    zero-copy TX descriptor would.
    """

    def __init__(self, nic, engine: KvEngine, ip: str, port: int = 6379,
                 n_shards: int = 1):
        if nic.offload is None:
            raise ValueError("KvNicOffload needs a NIC with an offload "
                             "engine attached")
        self.nic = nic
        self.engine = engine
        self.ip = ip
        self.port = port
        self.n_shards = n_shards
        self.codec = LegacyKvCodec()

    def install(self) -> None:
        self.nic.install_rx_program(self)

    def __call__(self, frame: bytes):
        offload = self.nic.offload
        # -- filter stage: a KV request is UDP to our (ip, port) -----------
        if (len(frame) < 42 or frame[12:14] != b"\x08\x00"
                or frame[14] != 0x45 or frame[23] != PROTO_UDP
                or frame[30:34] != ip_to_bytes(self.ip)):
            offload.counters.offload_kv_punts += 1
            return None
        (dst_port,) = struct.unpack_from("!H", frame, 36)
        if dst_port != self.port:
            offload.counters.offload_kv_punts += 1
            return None
        # -- map stage: parse + key hash -----------------------------------
        codec = self.codec
        try:
            request = codec.decode_message(frame[42:])
        except CodecError:
            offload.counters.offload_kv_punts += 1
            return None
        key = request.key
        if request.op == "get":
            value = self.engine.get(key)
            if value is None:
                offload.counters.offload_kv_misses += 1
                return self._reply(frame, codec.encode(Response(ST_MISS)))
            if value.nbytes <= INLINE_VALUE_LIMIT:
                # DMA the value out of host memory: device time, not CPU.
                offload.charge_device(self.nic.costs.dma_ns(value.nbytes))
                offload.counters.offload_kv_hits += 1
                return self._reply(frame, codec.encode(
                    Response(ST_VALUE, value=value.tobytes())))
        # -- steer stage: the owning shard's RX queue ----------------------
        offload.counters.offload_kv_steered += 1
        return ("steer", key_partition(key, self.n_shards))

    def _reply(self, request_frame: bytes, payload: bytes):
        """Build the on-NIC response frame by mirroring the request."""
        src_mac = bytes_to_mac(request_frame[6:12])
        src_ip = bytes_to_ip(request_frame[26:30])
        (src_port,) = struct.unpack_from("!H", request_frame, 34)
        datagram = UdpDatagram(src_port=self.port, dst_port=src_port,
                               payload=payload).pack(self.ip, src_ip)
        packet = Ipv4Packet(src=self.ip, dst=src_ip, proto=PROTO_UDP,
                            payload=datagram).pack()
        reply = EthernetFrame(dst=src_mac, src=self.nic.mac,
                              ethertype=ETHERTYPE_IPV4, payload=packet).pack()
        return ("reply", src_mac, reply)


# ---------------------------------------------------------------------------
# POSIX frontend (the copying baseline)
# ---------------------------------------------------------------------------

def posix_kv_server(kernel: Kernel, engine: KvEngine, port: int = 6379,
                    max_requests: int = 0) -> Generator:
    """The same engine behind kernel sockets: copies on every hop."""
    sys = kernel.thread()
    listen_fd = yield from sys.socket()
    yield from sys.bind(listen_fd, port)
    yield from sys.listen(listen_fd)
    conn_fd = yield from sys.accept(listen_fd)
    deframer = Deframer()
    codec = LegacyKvCodec()
    served = 0
    core = kernel.host.cpu
    while max_requests == 0 or served < max_requests:
        data = yield from sys.recv(conn_fd)
        if not data:
            break
        try:
            requests = [codec.decode_message(message)
                        for message in deframer.feed(data)]
        except (CodecError, FramingError):
            # A stream cannot be resynchronised past a record that does
            # not parse: this connection is over, the simulation is not.
            kernel.counters.kv_malformed_requests += 1
            yield from sys.close(conn_fd)
            break
        for request in requests:
            yield core.busy(engine.parse_cost())
            yield core.busy(engine.service_cost(request.op))
            if request.op == "set":
                engine.put(request.key, request.value)
                reply = codec.encode(Response(ST_STORED))
            else:
                value = engine.get(request.key)
                if value is None:
                    reply = codec.encode(Response(ST_MISS))
                else:
                    # POSIX cannot hand the stored buffer to the NIC: the
                    # value is copied into the reply (and copied again
                    # crossing into the kernel inside send()).
                    yield core.busy(kernel.costs.copy_ns(value.nbytes))
                    kernel.counters.kv_value_copies += 1
                    reply = codec.encode(
                        Response(ST_VALUE, value=value.tobytes()))
            yield from sys.send(conn_fd, frame_message(reply))
            served += 1
    return served


def posix_kv_client(kernel: Kernel, server_ip: str,
                    operations: Sequence[Tuple[int, bytes, Optional[bytes]]],
                    port: int = 6379,
                    stats: Optional[LatencyStats] = None) -> Generator:
    stats = stats if stats is not None else LatencyStats("kv-rtt")
    sys = kernel.thread()
    fd = yield from sys.socket()
    yield from sys.connect(fd, server_ip, port)
    deframer = Deframer()
    codec = LegacyKvCodec()
    results = []
    for op, key, value in operations:
        request = codec.encode_request(op_request(op, key, value))
        start = kernel.sim.now
        yield from sys.send(fd, frame_message(request))
        reply = None
        while reply is None:
            data = yield from sys.recv(fd)
            if not data:
                break
            messages = deframer.feed(data)
            if messages:
                reply = messages[0]
        stats.add(kernel.sim.now - start)
        results.append(get_result(codec.decode_reply(reply))
                       if op == OP_GET else None)
    yield from sys.close(fd)
    return results, stats


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def kv_workload(rng: Rng, n_ops: int, n_keys: int = 1000,
                value_size: int = 1024, get_fraction: float = 0.9
                ) -> List[Tuple[int, bytes, Optional[bytes]]]:
    """A YCSB-ish operation mix with a Zipf-hot key distribution."""
    ops: List[Tuple[int, bytes, Optional[bytes]]] = []
    for _ in range(n_ops):
        key = b"key-%08d" % rng.zipf_index(n_keys)
        if rng.chance(get_fraction):
            ops.append((OP_GET, key, None))
        else:
            ops.append((OP_PUT, key, rng.bytes(value_size)))
    return ops
