"""Open-loop SLO load generation for the protocol servers.

The closed-loop clients elsewhere measure RTT at whatever rate the
server sustains - they can never show overload, because a slow reply
slows the next request.  This module is the other half of the
methodology: a seeded **open-loop** generator that offers load at a
fixed rate regardless of completions (Poisson arrivals,
per-connection), so queueing delay and goodput collapse become visible
the moment offered load crosses capacity.

Production-shaped traffic, all knobs seeded and deterministic:

* **Poisson arrivals** per connection (``rate_ops_per_s`` split evenly);
  arrivals that fall due while a push is blocked pipeline into one
  element (up to :data:`PIPELINE_MAX` - the batching real clients do).
* **Zipfian keys** (:data:`repro.sim.rand.ZIPF_SKEW`) over a preloaded
  keyspace with a GET/SET mix.
* **Connection churn**: every ``churn_every`` requests a connection
  drains, disconnects and reconnects (TIME_WAIT-style churn).
* **Slow readers**: the first ``stall_conns`` connections stop reading
  replies for :data:`STALL_NS` mid-run while still sending.
* **Split writes**: ``chunk_bytes`` slices the encoded batch into
  arbitrary chunks, exercising the codecs' incremental reassembly on
  the server.

This module is traffic only: :func:`connection` is the client leg of
the ``open-loop`` / ``open-loop-sharded`` rows of
:data:`repro.testing.WORKLOADS` (their preload is the closed-loop
:func:`~repro.apps.kvstore.demi_kv_client` speaking the server's
codec).  The scenario driver builds the world, joins the legs, stops
the servers and checks the run; the ``proto-slo``
experiment maps a list of load fractions over those rows - the
goodput-vs-offered-load curve and the tail percentiles that
``BENCH_protocols.json`` persists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence

from ..apps.proto import Request
from ..apps.proto.codec import ST_ERROR, CodecError
from ..apps.steering import key_partition
from ..cluster.client import src_port_for_queue
from ..core.types import DemiTimeout
from ..sim.rand import Rng
from ..sim.trace import LatencyStats

__all__ = ["LoadConfig", "ConnMetrics", "PORT", "arrival_times",
           "connection", "shard_keys", "steered_ports"]

#: the port every open-loop server listens on
PORT = 6390
#: bound on a connection's end-of-run (and pre-churn) reply drain
DRAIN_TIMEOUT_NS = 100_000_000
#: the most requests one push coalesces
PIPELINE_MAX = 16
#: how long a stalled reader stops reading
STALL_NS = 2_000_000


@dataclass
class LoadConfig:
    """One offered-load point's worth of traffic knobs (the wire
    protocol is the server's: the legs read it off the server they load).
    Its defaults are the ``open-loop`` rows', and so ``proto-slo``'s."""

    rate_ops_per_s: float = 50_000.0   # total offered load, all connections
    duration_ms: int = 20              # measurement window (sim time)
    n_connections: int = 4
    n_keys: int = 64
    value_size: int = 128
    get_fraction: float = 0.9
    churn_every: int = 0               # reconnect after N requests (0 = never)
    stall_conns: int = 0               # first N connections stall mid-run
    chunk_bytes: int = 0               # split pushed bytes (0 = whole batch)


def arrival_times(rng: Rng, rate_ops_per_s: float,
                  duration_ns: int) -> List[int]:
    """Poisson arrival offsets (ns) over the window, seeded and sorted."""
    if rate_ops_per_s <= 0:
        return []
    mean_gap_ns = 1e9 / rate_ops_per_s
    times: List[int] = []
    t = 0.0
    while True:
        t += rng.exponential(mean_gap_ns)
        if t >= duration_ns:
            return times
        times.append(int(t))


class ConnMetrics:
    """Mutable per-run aggregates shared by every connection proc."""

    def __init__(self):
        self.sent = 0
        self.completed = 0
        self.error_replies = 0
        self.client_decode_errors = 0
        self.reconnects = 0
        self.stalls = 0


def connection(libos, cfg: LoadConfig, codec_cls, rng: Rng, conn_id: int,
               server_ip: str, keys: Sequence[bytes],
               stats: LatencyStats, metrics: ConnMetrics,
               src_port_alloc: Optional[Callable[[], int]] = None
               ) -> Generator:
    """One open-loop connection: send on schedule, drain opportunistically.

    A pop that completes with an error means the server closed the
    connection (its decode-error policy, an RST, RTO exhaustion): the
    connection is over, what it still owed stays uncompleted and the
    row shows ``completed < sent``.
    """
    window_ns = cfg.duration_ms * 1_000_000
    arrivals = arrival_times(rng.fork(1),
                             cfg.rate_ops_per_s / cfg.n_connections,
                             window_ns)
    start_ns = libos.sim.now
    stall_at = start_ns + window_ns // 3
    stall_until = stall_at + STALL_NS
    stalls_enabled = conn_id < cfg.stall_conns
    stalled_once = False

    codec = codec_cls()
    pending: deque = deque()   # (send_time_ns,) FIFO; replies match in order

    def connect() -> Generator:
        qd = yield from libos.socket()
        if src_port_alloc is not None:
            # Steered run: every connect (including churn reconnects)
            # draws a fresh source port that hashes to our shard's queue.
            yield from libos.connect(qd, server_ip, PORT,
                                     src_port=src_port_alloc())
        else:
            yield from libos.connect(qd, server_ip, PORT)
        libos.counters.loadgen_connects += 1
        return qd

    def absorb(data: bytes) -> None:
        try:
            replies = codec.feed_responses(data)
        except CodecError:
            metrics.client_decode_errors += 1
            return
        now = libos.sim.now
        for reply in replies:
            if not pending:
                metrics.client_decode_errors += 1
                return
            send_time = pending.popleft()
            stats.add(now - send_time)
            metrics.completed += 1
            if reply.status == ST_ERROR:
                metrics.error_replies += 1

    def drain(token: int) -> Generator:
        """Pop replies until nothing is owed or the drain budget runs out.

        Returns the pop token still armed, or ``None`` once a pop came
        back with an error: ``wait_any`` retired that token, so there is
        nothing left to wait on or cancel.
        """
        deadline_ns = libos.sim.now + DRAIN_TIMEOUT_NS
        while pending and libos.sim.now < deadline_ns:
            try:
                _i, result = yield from libos.wait_any(
                    [token], timeout_ns=deadline_ns - libos.sim.now)
            except DemiTimeout:
                break
            if result.error is not None:
                return None
            absorb(result.sga.tobytes())
            token = libos.pop(qd)
        return token

    qd = yield from connect()
    pop_token = libos.pop(qd)
    since_churn = 0
    i = 0
    while i < len(arrivals):
        target = start_ns + arrivals[i]
        now = libos.sim.now
        if now < target:
            in_stall = stalls_enabled and stall_at <= now < stall_until
            if in_stall:
                if not stalled_once:
                    stalled_once = True
                    metrics.stalls += 1
                    libos.counters.loadgen_stalls += 1
                # A slow reader: sleep without reading replies.
                yield libos.sim.timeout(target - now)
            else:
                try:
                    _i, result = yield from libos.wait_any(
                        [pop_token], timeout_ns=target - now)
                    if result.error is not None:
                        pop_token = None
                        break
                    absorb(result.sga.tobytes())
                    pop_token = libos.pop(qd)
                    continue
                except DemiTimeout:
                    pass
        # Send every due arrival as one pipelined element (capped).
        batch: List[Request] = []
        while (i < len(arrivals)
               and start_ns + arrivals[i] <= libos.sim.now
               and len(batch) < PIPELINE_MAX):
            key = keys[rng.zipf_index(len(keys)) - 1]
            if rng.chance(cfg.get_fraction):
                batch.append(Request(op="get", key=key, opaque=i))
            else:
                batch.append(Request(op="set", key=key,
                                     value=rng.bytes(cfg.value_size),
                                     opaque=i))
            i += 1
        if not batch:
            continue
        wire = b"".join(codec.encode_request(r) for r in batch)
        send_time = libos.sim.now
        for _ in batch:
            pending.append(send_time)
        if cfg.chunk_bytes > 0:
            for off in range(0, len(wire), cfg.chunk_bytes):
                yield from libos.blocking_push(
                    qd, libos.sga_alloc(wire[off:off + cfg.chunk_bytes]))
        else:
            yield from libos.blocking_push(qd, libos.sga_alloc(wire))
        metrics.sent += len(batch)
        since_churn += len(batch)
        if cfg.churn_every and since_churn >= cfg.churn_every:
            # Churn: drain what's owed, tear down, come back.
            pop_token = yield from drain(pop_token)
            if pop_token is None:
                break
            libos.cancel(pop_token)
            yield from libos.close(qd)
            pending.clear()
            codec = codec_cls()   # fresh stream state on the new conn
            qd = yield from connect()
            pop_token = libos.pop(qd)
            metrics.reconnects += 1
            libos.counters.loadgen_reconnects += 1
            since_churn = 0
    if pop_token is not None:
        pop_token = yield from drain(pop_token)
    if pop_token is not None:
        libos.cancel(pop_token)
    yield from libos.close(qd)


def shard_keys(n_keys: int, n_shards: int) -> List[List[bytes]]:
    """Per-shard key lists: *n_keys* total, every shard non-empty."""
    owned: List[List[bytes]] = [[] for _ in range(n_shards)]
    total = 0
    j = 0
    while total < n_keys or any(not ks for ks in owned):
        key = b"key-%06d" % j
        shard = key_partition(key, n_shards)
        if total < n_keys or not owned[shard]:
            owned[shard].append(key)
            total += 1
        j += 1
        if j > 100 * n_keys + 1000:  # pragma: no cover - partition sanity
            raise RuntimeError("key partition starved a shard")
    return owned


def steered_ports(client_ip: str, server_ip: str, shard: int,
                  n_shards: int) -> Callable[[], int]:
    """An allocator of distinct source ports that all RSS-steer a flow
    from *client_ip* onto *shard*'s RX queue."""
    next_start = 49152

    def alloc() -> int:
        nonlocal next_start
        port = src_port_for_queue(client_ip, server_ip, shard, n_shards,
                                  PORT, start=next_start)
        next_start = port + 1
        return port
    return alloc
