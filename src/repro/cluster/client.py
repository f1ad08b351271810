"""Clients that steer themselves onto a chosen shard.

The NIC hashes (src ip, dst ip, src port, dst port); everything but the
source port is fixed for a given client/server pair, so the client picks
the source port: :func:`src_port_for_queue` walks the ephemeral range
until the tuple hashes onto the wanted RX queue (a handful of probes on
average - real load generators do exactly this).  The workload generator
then draws only keys the same shard owns, so flow steering and key
partitioning agree end to end: pass the port as ``src_port`` to
:func:`repro.apps.kvstore.demi_kv_client`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..apps.kvstore import OP_GET, OP_PUT, get_result, op_request
from ..apps.proto.codec import ST_STORED, ST_VALUE, CodecError
from ..apps.proto.legacy import LegacyKvCodec
from ..apps.steering import key_partition
from ..core.retry import retry_with_backoff
from ..core.types import DemiError, DemiTimeout
from ..hw.nic import rss_queue_for_flow
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import names
from .replica import DEFAULT_KV_PORT

__all__ = ["src_port_for_queue", "shard_workload", "ReplicatedKvClient"]

#: first ephemeral port (matches the netstack's allocator)
EPHEMERAL_START = 49152

#: one replicated request waits this long for its reply before the
#: router drops the connection and re-resolves the chain
REQUEST_TIMEOUT_NS = 400_000
#: the router's one retry budget per operation (seeded backoff)
RETRY_BASE_DELAY_NS = 20_000
RETRY_MAX_DELAY_NS = 250_000
RETRY_MAX_ATTEMPTS = 10
RETRY_BUDGET_NS = 5_000_000


def src_port_for_queue(client_ip: str, server_ip: str, queue: int,
                       n_queues: int, dst_port: int,
                       start: int = EPHEMERAL_START) -> int:
    """The lowest source port >= *start* whose flow RSS-hashes to *queue*."""
    for port in range(start, 65536):
        if rss_queue_for_flow(client_ip, server_ip, port, dst_port,
                              n_queues) == queue:
            return port
    raise DemiError("no source port steers %s->%s onto queue %d/%d"
                    % (client_ip, server_ip, queue, n_queues))


def shard_workload(rng: Rng, n_ops: int, shard: int, n_shards: int,
                   n_keys: int = 256, value_size: int = 256,
                   get_fraction: float = 0.9, zipf_skew: float = 0.99
                   ) -> List[Tuple[int, bytes, Optional[bytes]]]:
    """A YCSB-ish mix restricted to keys *shard* owns.

    Scans ``key-%08d`` candidates until ``n_keys`` land on the shard
    (by :func:`~repro.apps.steering.key_partition`), preloads each with
    a PUT so later GETs hit, then draws a Zipf-hot mix over them.
    """
    owned: List[bytes] = []
    candidate = 0
    while len(owned) < n_keys:
        key = b"key-%08d" % candidate
        if key_partition(key, n_shards) == shard:
            owned.append(key)
        candidate += 1
        if candidate > 64 * n_keys * max(1, n_shards):
            raise DemiError("key space too sparse for shard %d/%d"
                            % (shard, n_shards))
    ops: List[Tuple[int, bytes, Optional[bytes]]] = [
        (OP_PUT, key, rng.bytes(value_size)) for key in owned]
    for _ in range(max(0, n_ops - len(owned))):
        key = owned[rng.zipf_index(len(owned), zipf_skew)]
        if rng.chance(get_fraction):
            ops.append((OP_GET, key, None))
        else:
            ops.append((OP_PUT, key, rng.bytes(value_size)))
    return ops


class ReplicatedKvClient:
    """A router for the chain-replicated tier (:mod:`repro.cluster.replica`).

    Consults the :class:`~repro.cluster.replica.ClusterDirectory` per
    operation - PUTs go to the key's chain head, GETs to its tail - and
    owns the whole failure policy: every transient fault (connect
    refused by a dying node, a request timing out because the server
    crashed mid-flight, an ``ECONNRESET``-style pop error, a
    ``STATUS_MOVED`` redirect from a stale route) closes the cached
    connection, re-resolves the chain against the directory, and retries
    under one seeded-backoff budget.  An operation fails only when
    :class:`~repro.core.retry.RetryBudgetExceeded` says the budget is
    spent - which the replication scenarios treat as "this write was
    never acknowledged", the only loss chain replication permits.
    """

    def __init__(self, libos, directory, rng: Rng):
        self.libos = libos
        self.directory = directory
        self.rng = rng
        self.stats = LatencyStats("repl-kv-rtt")
        self.codec = LegacyKvCodec()
        self._conns: Dict[str, int] = {}

    # -- public ops ---------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> Generator:
        """Sim-coroutine: replicated PUT; returns once the tail committed."""
        yield from self._op(OP_PUT, key, value)

    def get(self, key: bytes) -> Generator:
        """Sim-coroutine: linearizable GET from the key's chain tail."""
        result = yield from self._op(OP_GET, key, None)
        return result

    def close(self) -> Generator:
        for target in sorted(self._conns):
            qd = self._conns[target]
            yield from self.libos.close(qd)
        self._conns.clear()

    # -- machinery ----------------------------------------------------------
    def _op(self, op: int, key: bytes, value: Optional[bytes]) -> Generator:
        start = self.libos.sim.now
        result = yield from retry_with_backoff(
            self.libos.sim, lambda: self._attempt(op, key, value),
            rng=self.rng, retry_on=(DemiError,),
            base_delay_ns=RETRY_BASE_DELAY_NS,
            max_delay_ns=RETRY_MAX_DELAY_NS,
            max_attempts=RETRY_MAX_ATTEMPTS, budget_ns=RETRY_BUDGET_NS,
            op="%s %r" % ("PUT" if op == OP_PUT else "GET", key))
        # RTT includes retries and failovers: this is what the client felt.
        self.stats.add(self.libos.sim.now - start)
        return result

    def _attempt(self, op: int, key: bytes,
                 value: Optional[bytes]) -> Generator:
        chain_id = self.directory.chain_for_key(key)
        target = (self.directory.head(chain_id) if op == OP_PUT
                  else self.directory.tail(chain_id))
        if target is None:
            raise DemiError("chain %d has no live members" % chain_id)
        try:
            qd = yield from self._conn(target)
            request = op_request(op, key, value)
            data = yield from self._request(
                qd, self.codec.encode_request(request))
            try:
                reply = self.codec.decode_reply(data)
            except CodecError:
                # STATUS_MOVED (or anything else the KV format does not
                # define): this node is not the key's head/tail any more.
                raise DemiError("%s redirected by %s (status %r)"
                                % (request.op, target, data[:1]))
            if op == OP_GET:
                return get_result(reply)
            if reply.status not in (ST_STORED, ST_VALUE):
                raise DemiError("PUT not acknowledged by %s (%s)"
                                % (target, reply.status))
            return None
        except DemiError:
            self.libos.count(names.REPL_CLIENT_RETRIES)
            yield from self._drop(target)
            raise

    def _conn(self, target: str) -> Generator:
        qd = self._conns.get(target)
        if qd is not None:
            return qd
        libos = self.libos
        qd = yield from libos.socket()
        try:
            yield from libos.connect(qd, self.directory.addr_of(target),
                                     DEFAULT_KV_PORT)
        except Exception as exc:
            # VerbsError from a closed/crashed listener is transient from
            # the router's point of view: surface it typed so the retry
            # loop re-resolves the chain and tries the new member.
            yield from libos.close(qd)
            if isinstance(exc, DemiError):
                raise
            raise DemiError("connect to %s failed: %s" % (target, exc))
        self._conns[target] = qd
        return qd

    def _request(self, qd: int, request: bytes) -> Generator:
        libos = self.libos
        pushed = yield from libos.blocking_push(qd, libos.sga_alloc(request))
        if pushed.error is not None:
            raise DemiError("push failed: %s" % pushed.error)
        token = libos.pop(qd)
        try:
            _index, result = yield from libos.wait_any(
                [token], timeout_ns=REQUEST_TIMEOUT_NS)
        except DemiTimeout:
            libos.cancel(token)
            raise DemiError("request timed out")
        if result.error is not None:
            raise DemiError("connection failed: %s" % result.error)
        return result.sga.tobytes()

    def _drop(self, target: str) -> Generator:
        qd = self._conns.pop(target, None)
        if qd is not None:
            yield from self.libos.close(qd)
