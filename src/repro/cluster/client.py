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
from ..apps.proto.codec import CodecError
from ..apps.proto.legacy import LegacyKvCodec
from ..apps.steering import key_partition
from ..core.retry import retry_with_backoff
from ..core.types import DemiError, DemiTimeout, QToken, Sga
from ..hw.nic import rss_queue_for_flow
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from .replica import ACK, DEFAULT_KV_PORT, REQUEST_HEADER, STATUS_ACKED

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
                   get_fraction: float = 0.9
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
        key = owned[rng.zipf_index(len(owned))]
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
    crashed mid-flight, an ``ECONNRESET``-style push or pop error, a
    ``STATUS_MOVED`` redirect from a stale route) re-resolves the chain
    against the directory and retries under one seeded-backoff budget.
    The connection a push or pop failed on is closed, and so is a GET's
    when the GET times out: a late reply on it could pass for the next
    GET's.  An operation fails only when
    :class:`~repro.core.retry.RetryBudgetExceeded` says the budget is
    spent - which the replication scenarios treat as "this write was
    never acknowledged", the only loss chain replication permits.

    The tail acknowledges a PUT, not the head: every request carries the
    client's tag and the operation's number (each retry of an operation
    reuses it), every connection opens by naming the tag, and a PUT waits
    on its head and tail connections with one ``wait_any``.  An ack of an
    earlier operation is dropped and counted; a late one for this
    operation, from an earlier attempt, completes it - so a PUT that
    times out keeps both connections.
    """

    def __init__(self, libos, directory, rng: Rng):
        self.libos = libos
        self.directory = directory
        self.rng = rng
        self.stats = LatencyStats("repl-kv-rtt")
        self.codec = LegacyKvCodec()
        self.tag = directory.client_tag()
        #: the number of the operation in progress
        self.op_number = 0
        self._conns: Dict[str, int] = {}
        #: qd -> its pop, kept across waits: an ack that lands between two
        #: operations is still there for the next one to drop
        self._pops: Dict[int, QToken] = {}
        #: (target, token, sga) of every push not yet waited for
        self._pushes: List[Tuple[str, QToken, Sga]] = []

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
        self._pops.clear()

    # -- machinery ----------------------------------------------------------
    def _op(self, op: int, key: bytes, value: Optional[bytes]) -> Generator:
        start = self.libos.sim.now
        self.op_number += 1
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
        tail = self.directory.tail(chain_id)
        target = self.directory.head(chain_id) if op == OP_PUT else tail
        if target is None:
            raise DemiError("chain %d has no live members" % chain_id)
        try:
            # The tail's connection first: it must know where our acks go
            # before the head can log the write.
            yield from self._connect([tail, target])
            request = op_request(op, key, value)
            self._push(target, REQUEST_HEADER.pack(self.tag, self.op_number)
                       + self.codec.encode_request(request))
            yield from self._pushed()
            try:
                data = yield from self._reply([target, tail])
            except DemiTimeout:
                if op == OP_GET:
                    # A late reply on it could pass for the next GET's.  A
                    # late ack carries its operation's number.
                    yield from self._drop(tail)
                raise DemiError("request timed out")
            if data is None:
                return None   # the tail's ack
            try:
                reply = self.codec.decode_reply(data)
            except CodecError:
                # STATUS_MOVED (or anything else the KV format does not
                # define): this node is not the key's head/tail any more.
                raise DemiError("%s redirected by %s (status %r)"
                                % (request.op, target, data[:1]))
            if op == OP_GET:
                return get_result(reply)
            raise DemiError("PUT answered by %s (%s)"
                            % (target, reply.status))
        except DemiError:
            self.libos.counters.repl_client_retries += 1
            raise

    def _connect(self, targets: List[str]) -> Generator:
        """Connect each of *targets* not connected yet.

        Every socket comes first: a socket call waits for the core, which
        the first connection's memory registration then holds for ~100 us.
        A new connection names our tag, so that should its node be (or
        become) a tail its acks for us leave on it; the push is waited for
        with the request's.
        """
        libos = self.libos
        new: Dict[str, int] = {}
        for target in targets:
            if target not in self._conns and target not in new:
                new[target] = yield from libos.socket()
        try:
            for target, qd in new.items():
                yield from libos.connect(qd, self.directory.addr_of(target),
                                         DEFAULT_KV_PORT)
        except Exception as exc:
            # VerbsError from a closed/crashed listener is transient from
            # the router's point of view: surface it typed so the retry
            # loop re-resolves the chain and tries the new member.
            for qd in new.values():
                yield from libos.close(qd)
            if isinstance(exc, DemiError):
                raise
            raise DemiError("connect to %s failed: %s" % (target, exc))
        for target, qd in new.items():
            self._conns[target] = qd
            self._push(target, REQUEST_HEADER.pack(self.tag, 0))

    def _push(self, target: str, data: bytes) -> None:
        sga = self.libos.sga_alloc(data)
        token = self.libos.push(self._conns[target], sga)
        self._pushes.append((target, token, sga))

    def _pushed(self) -> Generator:
        """Wait for every push issued and free its buffer; DemiError, its
        connection closed, if one failed."""
        pushes, self._pushes = self._pushes, []
        results = yield from self.libos.wait_all(
            [token for _target, token, _sga in pushes])
        error = None
        for (target, _token, sga), result in zip(pushes, results):
            self.libos.sga_free(sga)
            if result.error is not None:
                error = "push to %s failed: %s" % (target, result.error)
                yield from self._drop(target)
        if error is not None:
            raise DemiError(error)

    def _reply(self, targets: List[str]) -> Generator:
        """The first reply from any of *targets* that is not an ack of an
        earlier operation - ``None`` for this one's ack.  DemiTimeout
        after ``REQUEST_TIMEOUT_NS``."""
        libos = self.libos
        targets = list(dict.fromkeys(targets))   # the head may be the tail
        qds = [self._conns[target] for target in targets]
        deadline = libos.sim.now + REQUEST_TIMEOUT_NS
        while True:
            for qd in qds:
                if qd not in self._pops:
                    self._pops[qd] = libos.pop(qd)
            index, result = yield from libos.wait_any(
                [self._pops[qd] for qd in qds],
                timeout_ns=deadline - libos.sim.now)
            del self._pops[qds[index]]
            if result.error is not None:
                yield from self._drop(targets[index])
                raise DemiError("connection to %s failed: %s"
                                % (targets[index], result.error))
            data = result.sga.tobytes()
            libos.sga_free(result.sga)
            if data[0] != STATUS_ACKED:
                return data
            if ACK.unpack(data)[1] == self.op_number:
                return None
            libos.counters.repl_stale_acks += 1

    def _drop(self, target: str) -> Generator:
        qd = self._conns.pop(target, None)
        if qd is not None:
            self._pops.pop(qd, None)
            yield from self.libos.close(qd)
