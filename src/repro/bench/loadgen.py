"""Open-loop SLO load generation for the protocol servers.

The closed-loop clients elsewhere in ``repro.bench`` measure RTT at
whatever rate the server sustains - they can never show overload,
because a slow reply slows the next request.  This module is the other
half of the methodology: a seeded **open-loop** generator that offers
load at a fixed rate regardless of completions (Poisson arrivals,
per-connection), so queueing delay and goodput collapse become visible
the moment offered load crosses capacity.

Production-shaped traffic, all knobs seeded and deterministic:

* **Poisson arrivals** per connection (``rate_ops_per_s`` split evenly);
  arrivals that fall due while a push is blocked pipeline into one
  element (up to ``pipeline_max`` - the batching real clients do).
* **Zipfian keys** (``zipf_skew``) over a preloaded keyspace with a
  GET/SET mix.
* **Connection churn**: every ``churn_every`` requests a connection
  drains, disconnects and reconnects (TIME_WAIT-style churn).
* **Slow readers**: the first ``stall_conns`` connections stop reading
  replies for ``stall_ns`` mid-run while still sending.
* **Split writes**: ``chunk_bytes`` slices the encoded batch into
  arbitrary chunks, exercising the codecs' incremental reassembly on
  the server.

:func:`run_open_loop` runs one offered-load point against a
:class:`~repro.apps.proto.server.ProtoServer` on a dpdk or posix pair,
or (``cores > 1``) against the sharded cluster via
:class:`~repro.cluster.shard.ShardProtoServer` with RSS-steered
connections.  :func:`slo_sweep` maps a list of load fractions over it -
the goodput-vs-offered-load curve and the tail percentiles that
``BENCH_protocols.json`` persists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Sequence

from ..apps.kvstore import KvEngine
from ..apps.proto import CODECS, KvEngineStore, ProtoServer, Request
from ..apps.proto.codec import ST_ERROR, CodecError
from ..apps.steering import key_partition
from ..cluster.client import src_port_for_queue
from ..cluster.shard import ShardProtoServer
from ..core.types import DemiTimeout
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import names
from ..testbed import (make_dpdk_libos_pair, make_posix_libos_pair,
                       make_sharded_kv_world)

__all__ = ["LoadConfig", "run_open_loop", "slo_sweep", "arrival_times"]


@dataclass
class LoadConfig:
    """One offered-load point's worth of generator knobs."""

    protocol: str = "resp"
    rate_ops_per_s: float = 50_000.0   # total offered load, all connections
    duration_ms: int = 40              # measurement window (sim time)
    n_connections: int = 4
    pipeline_max: int = 16             # max requests coalesced per push
    n_keys: int = 64
    value_size: int = 128
    get_fraction: float = 0.9
    zipf_skew: float = 0.99
    churn_every: int = 0               # reconnect after N requests (0 = never)
    stall_conns: int = 0               # first N connections stall mid-run
    stall_ns: int = 2_000_000          # how long a stalled reader stops
    chunk_bytes: int = 0               # split pushed bytes (0 = whole batch)
    port: int = 6390
    drain_timeout_ns: int = 100_000_000  # bound on end-of-run reply drain


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


class _ConnMetrics:
    """Mutable per-run aggregates shared by every connection proc."""

    def __init__(self):
        self.sent = 0
        self.completed = 0
        self.error_replies = 0
        self.client_decode_errors = 0
        self.reconnects = 0
        self.stalls = 0


def _connection(libos, cfg: LoadConfig, codec_cls, rng: Rng, conn_id: int,
                server_ip: str, keys: Sequence[bytes],
                stats: LatencyStats, metrics: _ConnMetrics,
                src_port_alloc=None) -> Generator:
    """One open-loop connection: send on schedule, drain opportunistically."""
    window_ns = cfg.duration_ms * 1_000_000
    arrivals = arrival_times(rng.fork(1),
                             cfg.rate_ops_per_s / cfg.n_connections,
                             window_ns)
    start_ns = libos.sim.now
    stall_at = start_ns + window_ns // 3
    stall_until = stall_at + cfg.stall_ns
    stalls_enabled = conn_id < cfg.stall_conns and cfg.stall_ns > 0
    stalled_once = False

    codec = codec_cls()
    pending: deque = deque()   # (send_time_ns,) FIFO; replies match in order

    def connect() -> Generator:
        qd = yield from libos.socket()
        if src_port_alloc is not None:
            # Steered run: every connect (including churn reconnects)
            # draws a fresh source port that hashes to our shard's queue.
            yield from libos.connect(qd, server_ip, cfg.port,
                                     src_port=src_port_alloc())
        else:
            yield from libos.connect(qd, server_ip, cfg.port)
        libos.count(names.LOADGEN_CONNECTS)
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

    def drain(deadline_ns: int, token: int) -> Generator:
        """Pop replies until pending empties or the deadline passes."""
        while pending and libos.sim.now < deadline_ns:
            try:
                _i, result = yield from libos.wait_any(
                    [token], timeout_ns=deadline_ns - libos.sim.now)
            except DemiTimeout:
                break
            if result.error is not None:
                return token, False
            absorb(result.sga.tobytes())
            token = libos.pop(qd)
        return token, True

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
                    libos.count(names.LOADGEN_STALLS)
                # A slow reader: sleep without reading replies.
                yield libos.sim.timeout(target - now)
            else:
                try:
                    _i, result = yield from libos.wait_any(
                        [pop_token], timeout_ns=target - now)
                    if result.error is not None:
                        break  # server closed us (decode error policy)
                    absorb(result.sga.tobytes())
                    pop_token = libos.pop(qd)
                    continue
                except DemiTimeout:
                    pass
        # Send every due arrival as one pipelined element (capped).
        batch: List[Request] = []
        while (i < len(arrivals)
               and start_ns + arrivals[i] <= libos.sim.now
               and len(batch) < cfg.pipeline_max):
            key = keys[rng.zipf_index(len(keys), cfg.zipf_skew) - 1]
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
            pop_token, _ok = yield from drain(
                libos.sim.now + cfg.drain_timeout_ns, pop_token)
            libos.cancel(pop_token)
            yield from libos.close(qd)
            pending.clear()
            codec = codec_cls()   # fresh stream state on the new conn
            qd = yield from connect()
            pop_token = libos.pop(qd)
            metrics.reconnects += 1
            libos.count(names.LOADGEN_RECONNECTS)
            since_churn = 0
    pop_token, _ok = yield from drain(
        libos.sim.now + cfg.drain_timeout_ns, pop_token)
    libos.cancel(pop_token)
    yield from libos.close(qd)


def _preload(libos, cfg: LoadConfig, codec_cls, rng: Rng, server_ip: str,
             keys: Sequence[bytes],
             src_port: Optional[int] = None) -> Generator:
    """Closed-loop SET of every key so GETs hit during measurement."""
    codec = codec_cls()
    qd = yield from libos.socket()
    if src_port is not None:
        yield from libos.connect(qd, server_ip, cfg.port, src_port=src_port)
    else:
        yield from libos.connect(qd, server_ip, cfg.port)
    for key in keys:
        wire = codec.encode_request(
            Request(op="set", key=key, value=rng.bytes(cfg.value_size)))
        yield from libos.blocking_push(qd, libos.sga_alloc(wire))
        result = yield from libos.blocking_pop(qd)
        codec.feed_responses(result.sga.tobytes())
    yield from libos.close(qd)


def _shard_keys(n_keys: int, n_shards: int) -> List[List[bytes]]:
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


def run_open_loop(cfg: LoadConfig, seed: int = 7, libos_kind: str = "dpdk",
                  cores: int = 1) -> Dict[str, object]:
    """One offered-load point; returns the metrics row.

    ``cores == 1`` serves through :class:`ProtoServer` on a dpdk or
    posix libOS pair; ``cores > 1`` (dpdk only) builds the sharded
    world with :class:`ShardProtoServer` and steers each connection to
    its shard's RX queue with shard-owned keys only.  The two differ
    only in how the world is built and who owns which keys: each yields
    *lanes* - ``(client libOS, keys, source-port allocator or None)`` -
    and connection *i* runs on lane ``i % len(lanes)``.
    """
    codec_cls = CODECS[cfg.protocol]
    rng = Rng(seed).fork_named("loadgen.%s" % cfg.protocol)
    stats = LatencyStats("loadgen-rtt")
    metrics = _ConnMetrics()

    if cores > 1:
        if libos_kind != "dpdk":
            raise ValueError("sharded runs need the dpdk libOS")
        w, sharded, clients = make_sharded_kv_world(
            cores, seed=seed, port=cfg.port,
            server_cls=ShardProtoServer,
            server_kwargs={"codec_factory": codec_cls})
        sharded.start()
        servers = [shard.server for shard in sharded.shards]
        server_ip = sharded.ip
        # Distinct steered source ports per (client ip, shard) pair.
        next_start: Dict[tuple, int] = {}

        def steered_alloc(libos, shard):
            def alloc() -> int:
                key = (libos.ip, shard)
                port = src_port_for_queue(
                    libos.ip, server_ip, shard, cores, cfg.port,
                    start=next_start.get(key, 49152))
                next_start[key] = port + 1
                return port
            return alloc

        lanes = [(clients[shard], keys, steered_alloc(clients[shard], shard))
                 for shard, keys in enumerate(_shard_keys(cfg.n_keys, cores))]
    else:
        makers = {"dpdk": make_dpdk_libos_pair,
                  "posix": make_posix_libos_pair}
        if libos_kind not in makers:
            raise ValueError("unknown libos kind %r" % libos_kind)
        w, client, server_libos = makers[libos_kind](seed=seed)
        server_ip = "10.0.0.2"
        engine = KvEngine(server_libos.host, name="loadgen.kv")
        server = ProtoServer(server_libos, codec_cls, KvEngineStore(engine),
                             port=cfg.port)
        w.sim.spawn(server.start(), name="loadgen.server")
        servers = [server]
        lanes = [(client, [b"key-%06d" % j for j in range(cfg.n_keys)], None)]

    # Preload every lane's keys through a connection of its own.
    for libos, keys, alloc in lanes:
        proc = w.sim.spawn(
            _preload(libos, cfg, codec_cls, rng.fork_named("preload"),
                     server_ip, keys, src_port=alloc() if alloc else None),
            name="loadgen.preload")
        w.sim.run_until_complete(proc, limit=10**13)
    measure_start = w.sim.now
    procs = []
    for conn_id in range(cfg.n_connections):
        libos, keys, alloc = lanes[conn_id % len(lanes)]
        procs.append(w.sim.spawn(
            _connection(libos, cfg, codec_cls, rng.fork(100 + conn_id),
                        conn_id, server_ip, keys, stats, metrics,
                        src_port_alloc=alloc),
            name="loadgen.conn%d" % conn_id))
    for proc in procs:
        w.sim.run_until_complete(proc, limit=10**13)
    elapsed_ns = w.sim.now - measure_start
    for server in servers:
        server.stop()
    w.run(until=w.sim.now + 5_000_000)
    identity_ok = True
    for libos in [s.libos for s in servers] + [lane[0] for lane in lanes]:
        t = libos.qtokens
        if t.created != t.completed + t.cancelled + t.in_flight:
            identity_ok = False
    elapsed_s = elapsed_ns / 1e9 if elapsed_ns else 1.0
    return {
        "protocol": cfg.protocol,
        "libos": libos_kind,
        "cores": cores,
        "offered_ops_per_s": cfg.rate_ops_per_s,
        "duration_ms": cfg.duration_ms,
        "n_connections": cfg.n_connections,
        "sent": metrics.sent,
        "completed": metrics.completed,
        "goodput_ops_per_s": round(metrics.completed / elapsed_s, 1),
        "p50_ns": stats.percentile(50),
        "p99_ns": stats.percentile(99),
        "p999_ns": stats.percentile(99.9),
        "client_decode_errors": metrics.client_decode_errors,
        "server_decode_errors": sum(s.decode_errors for s in servers),
        "error_replies": sum(s.error_replies for s in servers),
        "reconnects": metrics.reconnects,
        "stalls": metrics.stalls,
        "server_requests": sum(s.requests_served for s in servers),
        "qtoken_identity_ok": identity_ok,
    }


def slo_sweep(cfg: LoadConfig, load_fractions: Sequence[float],
              base_rate_ops_per_s: float, seed: int = 7,
              libos_kind: str = "dpdk",
              cores: int = 1) -> List[Dict[str, object]]:
    """Offered-load sweep: one :func:`run_open_loop` row per fraction.

    ``base_rate_ops_per_s`` is nominal single-run capacity; fractions
    above 1.0 are the overload points where goodput must plateau while
    p99.9 keeps climbing.
    """
    rows = []
    for fraction in load_fractions:
        point = replace(cfg, rate_ops_per_s=base_rate_ops_per_s * fraction)
        row = run_open_loop(point, seed=seed, libos_kind=libos_kind,
                            cores=cores)
        row["load_fraction"] = fraction
        rows.append(row)
    return rows
