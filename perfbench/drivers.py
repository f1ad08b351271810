"""The four executions the six workloads run, on the surviving surface only.

Built on ``repro.testbed`` builders, the Figure-3 libOS calls,
``repro.apps.proto`` (``CODECS``, ``ProtoServer``, ``KvEngineStore``),
``KvEngine``, ``ShardProtoServer`` through ``make_sharded_kv_world``,
``repro.cluster.replica`` with ``ReplicatedKvClient``, ``World(drop_rate)``
and the kernel's ``crash_teardown``.  It must not import
``repro.bench.runners``, ``repro.testing.scenarios``, ``DemiKvServer`` /
``ShardKvServer`` or ``tools``: those are slated for deletion.

This module is imported afresh for every set-up (see ``run.py``), so the
top-level ``repro`` imports below are part of what ``setup_s`` times.

An execution has three phases.  Building it is the set-up: world,
ARP/connect, preload.  ``measure()`` is the measured window and nothing
else.  ``finish()`` reads every key back, lets each process exit through
the kernel's reclaim path and checks what must be zero afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional

from repro.apps.kvstore import KvEngine
from repro.apps.proto import (CODECS, ST_STORED, ST_VALUE, CodecError,
                              KvEngineStore, ProtoServer, Request)
from repro.apps.steering import key_partition
from repro.cluster.client import ReplicatedKvClient, src_port_for_queue
from repro.cluster.replica import ClusterDirectory, ReplicaNode
from repro.cluster.shard import ShardProtoServer
from repro.core.retry import RetryBudgetExceeded
from repro.core.types import DemiTimeout
from repro.kernelos.reclaim import crash_teardown
from repro.libos.rdma_libos import RdmaLibOS
from repro.rdma.cm import RdmaCm
from repro.sim.rand import Rng
from repro.testbed import (World, make_dpdk_libos_pair, make_posix_libos_pair,
                           make_sharded_kv_world, make_spdk_libos)

from . import harness

#: no measured phase may take longer than this much simulated time
SIM_LIMIT_NS = 20_000_000_000
#: after the processes exit, in-flight DMA gets this long to let go
QUIESCE_NS = 5_000_000
#: most requests an open-loop connection coalesces into one push
PIPELINE_MAX = 16
#: idle gap between open-loop rungs, so one rung's tail never meets the next
RUNG_GAP_NS = 50_000


class Execution:
    """Common state, the result fields and the end-of-run invariants."""

    def __init__(self, cfg, world):
        self.cfg = cfg
        self.world = world
        self.sim = world.sim
        self.liboses: List = []          # every libOS, for the identities
        self.serving_cores: List = []    # cores whose busy_ns is "server CPU"
        #: ``harness.mark`` stamps at fixed points of the work: the world
        #: built, the preload about to start, the window's two ends and
        #: every ``MARK_EVERY_OPS`` completed ops between them.  Executions
        #: of one seed do identical work between two marks, so ``run.py``
        #: can compare them slice by slice.
        self.marks: List[float] = []
        self._unmarked = 0
        self.mark()
        # -- filled by measure() / finish() --
        self.attempted = 0
        self.completed = 0
        self.violations: List[str] = []
        self.latencies: List[int] = []   # the p50/p99 samples (see README)
        self.lateness: List[int] = []
        self.goodput_ops_per_s = 0.0
        self.window_ns = 0
        self.server_busy_ns = 0
        self.extra: Dict[str, float] = {}

    # -- helpers ------------------------------------------------------------
    def _run(self, gen: Generator, name: str):
        proc = self.sim.spawn(gen, name="perfbench.%s" % name)
        return self.sim.run_until_complete(
            proc, limit=self.sim.now + SIM_LIMIT_NS)

    def _run_all(self, gens: List[Generator], name: str) -> None:
        procs = [self.sim.spawn(g, name="perfbench.%s%d" % (name, i))
                 for i, g in enumerate(gens)]
        limit = self.sim.now + SIM_LIMIT_NS
        for proc in procs:
            self.sim.run_until_complete(proc, limit=limit)

    def _busy(self) -> int:
        return sum(core.busy_ns for core in self.serving_cores)

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def mark(self) -> None:
        harness.mark(self.marks)

    def done(self, n: int = 1) -> None:
        """Count *n* correctly completed ops."""
        self.completed += n
        self._unmarked += n
        if self._unmarked >= self.cfg.MARK_EVERY_OPS:
            self._unmarked = 0
            self.mark()

    @property
    def failed(self) -> int:
        """Ops refused, timed out, answered wrongly or lost after ack.

        ``completed`` counts correct answers only.  A broken invariant
        that no single op owns still counts as one failure.
        """
        return min(self.attempted, max(self.attempted - self.completed,
                                       len(self.violations)))

    def measure(self) -> None:
        """The measured window; subclasses fill the result fields."""
        start_ns, busy = self.sim.now, self._busy()
        self.marks = []
        self.mark()
        self._measure()
        self.mark()
        self.window_ns = self.sim.now - start_ns
        self.server_busy_ns = self._busy() - busy
        if not self.goodput_ops_per_s:   # the open loop reports a rung's
            self.goodput_ops_per_s = self.completed * 1e9 / self.window_ns

    def finish(self) -> None:
        """Read-back, orderly exit of every process, then the invariants."""
        self._readback()
        self._stop_servers()
        self._check_identities()
        self._run_all([crash_teardown(libos, None) for libos in self.liboses],
                      "exit")
        self.world.run(until=self.sim.now + QUIESCE_NS)
        self._check_reclaimed()

    def _check_identities(self) -> None:
        for libos in self.liboses:
            t = libos.qtokens
            if t.created != t.completed + t.cancelled + t.in_flight:
                self.fail("%s qtoken identity broken: created=%d completed=%d"
                          " cancelled=%d in_flight=%d"
                          % (libos.name, t.created, t.completed, t.cancelled,
                             t.in_flight))
        for name, value in self.world.tracer.counters.items():
            if name.endswith(".faults") and value:
                self.fail("DMA protection fault: %s=%d" % (name, value))

    @property
    def live_buffers(self) -> int:
        return sum(h.mm.live_buffer_count for h in self.world.hosts.values())

    @property
    def iommu_mappings(self) -> int:
        return sum(nic.iommu.mapped_ranges
                   for h in self.world.hosts.values() for nic in h.nics)

    @property
    def qtokens_in_flight(self) -> int:
        return sum(libos.qtokens.in_flight for libos in self.liboses)

    def _check_reclaimed(self) -> None:
        if self.live_buffers:
            self.fail("%d registered buffers live after exit"
                      % self.live_buffers)
        if self.iommu_mappings:
            self.fail("%d IOMMU ranges mapped after exit"
                      % self.iommu_mappings)
        if self.qtokens_in_flight:
            self.fail("%d qtokens in flight after exit"
                      % self.qtokens_in_flight)

    def _measure(self) -> None:
        raise NotImplementedError

    def _readback(self) -> None:
        raise NotImplementedError

    def _stop_servers(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Wire-protocol connections (workloads 1, 2, 3, 6)
# ---------------------------------------------------------------------------

class _Conn:
    """One client connection: codec, FIFO of owed replies, reply checks."""

    def __init__(self, exe: Execution, libos, index: int, keys: List[bytes],
                 server_ip: str, port: int, src_port: Optional[int] = None):
        self.exe = exe
        self.libos = libos
        self.index = index
        self.keys = keys
        self.server_ip = server_ip
        self.port = port
        self.src_port = src_port
        self.codec = CODECS[exe.cfg.PROTOCOL]()
        self.qd = -1
        #: the open loop's standing pop; None once the connection broke
        self.pop_token: Optional[int] = None
        #: (op, due_ns) in send order; replies arrive in the same order
        self.owed: deque = deque()
        self.broken = False

    def wire(self, op: harness.Op) -> bytes:
        return self.codec.encode_request(Request(
            op=op.op, key=self.keys[op.key], value=op.value))

    def connect_and_preload(self, values: List[bytes]) -> Generator:
        libos = self.libos
        self.qd = yield from libos.socket()
        if self.src_port is None:
            yield from libos.connect(self.qd, self.server_ip, self.port)
        else:
            yield from libos.connect(self.qd, self.server_ip, self.port,
                                     src_port=self.src_port)
        for key, value in enumerate(values):
            yield from self.request(harness.Op(0, harness.SET, key, value,
                                               b""), record=False)

    def push(self, wire: bytes) -> Generator:
        sga = self.libos.sga_alloc(wire)
        result = yield from self.libos.blocking_push(self.qd, sga)
        self.libos.sga_free(sga)
        if result.error is not None:
            self.broken = True
            self.exe.fail("conn %d push failed: %s"
                          % (self.index, result.error))

    def absorb(self, result, record: bool = True) -> None:
        """Match one popped element's replies to the requests that owe them."""
        if result.error is not None:
            self.broken = True
            self.exe.fail("conn %d lost its connection: %s"
                          % (self.index, result.error))
            return
        data = result.sga.tobytes()
        self.libos.sga_free(result.sga)
        try:
            replies = self.codec.feed_responses(data)
        except CodecError as err:
            self.broken = True
            self.exe.fail("conn %d reply stream desynchronised: %s"
                          % (self.index, err))
            return
        now = self.libos.sim.now
        for reply in replies:
            if not self.owed:
                self.exe.fail("conn %d got a reply nobody asked for"
                              % self.index)
                return
            op, due_ns = self.owed.popleft()
            if op.op == harness.GET:
                ok = reply.status == ST_VALUE and reply.value == op.expect
            else:
                ok = reply.status == ST_STORED
            if not ok:
                self.exe.fail("conn %d %s key %d answered %s (%d bytes)"
                              % (self.index, op.op, op.key, reply.status,
                                 len(reply.value)))
            elif record:
                self.exe.done()
                self.exe.latencies_now.append(now - due_ns)
                self.exe.completion_times.append(now)

    def request(self, op: harness.Op, record: bool = True) -> Generator:
        """Closed loop: one request, then its reply."""
        start = self.libos.sim.now
        if record:
            self.exe.attempted += 1
        yield from self.push(self.wire(op))
        self.owed.append((op, start))
        while self.owed and not self.broken:
            result = yield from self.libos.blocking_pop(self.qd)
            self.absorb(result, record)

    def poll(self, timeout_ns: int) -> Generator:
        """Open loop: absorb one element of replies; False on timeout."""
        try:
            _i, result = yield from self.libos.wait_any(
                [self.pop_token], timeout_ns=timeout_ns)
        except DemiTimeout:
            return False
        self.absorb(result)
        self.pop_token = None if self.broken else self.libos.pop(self.qd)
        return True

    def close(self) -> Generator:
        yield from self.libos.close(self.qd)


class _ProtoExecution(Execution):
    """Shared by the closed and the open loop: connections, read-back."""

    def __init__(self, cfg, world, schedule: harness.Schedule):
        super().__init__(cfg, world)
        self.schedule = schedule
        self.conns: List[_Conn] = []
        #: where absorb() files samples; a rung swaps in its own list
        self.latencies_now: List[int] = self.latencies
        self.completion_times: List[int] = []

    def _preload(self) -> None:
        self.mark()
        self._run_all([conn.connect_and_preload(values) for conn, values
                       in zip(self.conns, self.schedule.preload)], "preload")

    def _readback(self) -> None:
        def leg(conn: _Conn, values: List[bytes]) -> Generator:
            for key, value in enumerate(values):
                if conn.broken:
                    return
                yield from conn.request(
                    harness.Op(0, harness.GET, key, b"", value), record=False)
            yield from conn.close()

        self._run_all([leg(conn, values) for conn, values
                       in zip(self.conns, self.schedule.final)], "readback")


class ClosedShardExecution(_ProtoExecution):
    """N closed-loop clients, one per shard of a ``ShardProtoServer``."""

    SERVER_IP = "10.0.0.100"

    def __init__(self, cfg, schedule: harness.Schedule, seed: int):
        n = cfg.N_CONNS
        world, self.server, clients = make_sharded_kv_world(
            n, seed=seed, port=cfg.PORT, server_cls=ShardProtoServer,
            server_kwargs={"codec_factory": CODECS[cfg.PROTOCOL]})
        super().__init__(cfg, world, schedule)
        self.liboses = clients + [s.libos for s in self.server.shards]
        self.serving_cores = [s.core for s in self.server.shards]
        self.server.start()
        for shard, libos in enumerate(clients):
            keys = _shard_keys(shard, n, cfg.KEYS_PER_CONN)
            src_port = src_port_for_queue(libos.ip, self.SERVER_IP, shard, n,
                                          cfg.PORT)
            self.conns.append(_Conn(self, libos, shard, keys, self.SERVER_IP,
                                    cfg.PORT, src_port=src_port))
        self._preload()

    def _measure(self) -> None:
        def leg(conn: _Conn, ops: List[harness.Op]) -> Generator:
            for op in ops:
                if conn.broken:
                    return
                yield from conn.request(op)

        self._run_all([leg(conn, ops) for conn, ops
                       in zip(self.conns, self.schedule.rungs[0].ops)],
                      "client")

    def _stop_servers(self) -> None:
        self.server.stop()
        if self.server.wasted_wakeups or self.server.cross_wakeups:
            self.fail("wake-one claim broken: %d wasted, %d cross-shard"
                      % (self.server.wasted_wakeups,
                         self.server.cross_wakeups))
        if self.server.misrouted or self.server.decode_errors:
            self.fail("%d misrouted requests, %d decode errors"
                      % (self.server.misrouted, self.server.decode_errors))


def _shard_keys(shard: int, n_shards: int, n_keys: int) -> List[bytes]:
    """The first *n_keys* candidate names that *shard* owns."""
    owned: List[bytes] = []
    candidate = 0
    while len(owned) < n_keys:
        key = b"key-%08d" % candidate
        if key_partition(key, n_shards) == shard:
            owned.append(key)
        candidate += 1
    return owned


class OpenLoopExecution(_ProtoExecution):
    """Poisson connections against one single-core ``ProtoServer``."""

    SERVER_IP = "10.0.0.2"

    def __init__(self, cfg, schedule: harness.Schedule, seed: int):
        maker = {"dpdk": make_dpdk_libos_pair,
                 "posix": make_posix_libos_pair}[cfg.LIBOS]
        world, client, server_libos = maker(
            drop_rate=cfg.DROP_RATE, seed=getattr(cfg, "FABRIC_SEED", seed))
        super().__init__(cfg, world, schedule)
        self.liboses = [client, server_libos]
        self.serving_cores = list(server_libos.host.cpus.cores)
        engine = KvEngine(server_libos.host, name="perfbench.kv")
        self.server = ProtoServer(server_libos, CODECS[cfg.PROTOCOL],
                                  KvEngineStore(engine), port=cfg.PORT)
        self.server_proc = self.sim.spawn(self.server.start(),
                                          name="perfbench.server")
        for index in range(cfg.N_CONNS):
            keys = [b"c%d-key-%04d" % (index, k)
                    for k in range(cfg.KEYS_PER_CONN)]
            self.conns.append(_Conn(self, client, index, keys,
                                    self.SERVER_IP, cfg.PORT))
        self._preload()
        self.rungs: Dict[str, Dict[str, float]] = {}

    def _measure(self) -> None:
        for rung in self.schedule.rungs:
            self._run_rung(rung)
            self.world.run(until=self.sim.now + RUNG_GAP_NS)
        self.latencies = self.rungs[self.cfg.LATENCY_RUNG]["latencies"]
        self.goodput_ops_per_s = self.rungs["over"]["goodput_ops_per_s"]
        limit_ns = getattr(self.cfg, "P99_LIMIT_NS", None)
        if limit_ns is not None:
            # The highest rung that met the limit without a growing backlog.
            self.extra["slo_rate_ops_per_s"] = max(
                [r["rate_ops_per_s"] for r in self.rungs.values()
                 if r["p99_ns"] <= limit_ns
                 and r["completed_in_window"] >= 0.99 * r["sent"]] or [0.0])

    def _run_rung(self, rung: harness.Rung) -> None:
        start_ns = self.sim.now + RUNG_GAP_NS
        self.latencies_now, self.completion_times = [], []
        sent_before = self.attempted
        self._run_all([self._leg(conn, ops, start_ns) for conn, ops
                       in zip(self.conns, rung.ops)], rung.name)
        end_ns = start_ns + rung.window_ns
        in_window = sum(1 for t in self.completion_times if t <= end_ns)
        self.rungs[rung.name] = {
            "rate_ops_per_s": rung.rate_ops_per_s,
            "sent": self.attempted - sent_before,
            "completed_in_window": in_window,
            "goodput_ops_per_s": in_window * 1e9 / rung.window_ns,
            "latencies": self.latencies_now,
            "p50_ns": harness.percentile(self.latencies_now, 50),
            "p99_ns": harness.percentile(self.latencies_now, 99),
        }

    def _leg(self, conn: _Conn, ops: List[harness.Op],
             start_ns: int) -> Generator:
        """Send on schedule whatever the replies do; drain what is owed.

        Latency runs from the instant a request was due, so a stalled
        sender's wait is charged to the requests stuck behind it.
        """
        libos, sim = conn.libos, self.sim
        conn.pop_token = libos.pop(conn.qd)
        i = 0
        while i < len(ops) and not conn.broken:
            due = start_ns + ops[i].due_ns
            if sim.now < due:
                yield from conn.poll(due - sim.now)
                continue
            batch = []
            while (i < len(ops) and len(batch) < PIPELINE_MAX
                   and start_ns + ops[i].due_ns <= sim.now):
                batch.append(ops[i])
                i += 1
            wire = b"".join(conn.wire(op) for op in batch)
            for op in batch:
                due = start_ns + op.due_ns
                self.lateness.append(sim.now - due)
                conn.owed.append((op, due))
            self.attempted += len(batch)
            yield from conn.push(wire)
        deadline = sim.now + self.cfg.DRAIN_TIMEOUT_NS
        while conn.owed and not conn.broken and sim.now < deadline:
            if not (yield from conn.poll(deadline - sim.now)):
                break
        if conn.pop_token is not None:
            libos.cancel(conn.pop_token)
        if conn.owed:
            conn.broken = True   # its replies can no longer be matched

    def _stop_servers(self) -> None:
        self.server.stop()
        if self.server_proc.alive:
            self.server_proc.interrupt("perfbench done")
        if self.server.decode_errors or self.server.error_replies:
            self.fail("server saw %d decode errors, %d error replies"
                      % (self.server.decode_errors,
                         self.server.error_replies))


# ---------------------------------------------------------------------------
# Chain replication over RDMA with a head kill (workload 4)
# ---------------------------------------------------------------------------

class _KeyModel:
    """What one client's reads may return, per key.

    ``floor`` is the newest acknowledged value.  A PUT the client gave up
    on may or may not have committed, so its value stays admissible
    (``maybe``) until a read shows which way it went.
    """

    def __init__(self, preload: List[bytes]):
        self.floor: List[bytes] = list(preload)
        self.maybe: List[List[bytes]] = [[] for _ in preload]

    def acked(self, key: int, value: bytes) -> None:
        self.floor[key] = value
        self.maybe[key] = []

    def admissible(self, key: int, found: bool, value) -> bool:
        if not found:
            return False
        value = bytes(value)
        if value == self.floor[key]:
            return True
        if value in self.maybe[key]:
            self.acked(key, value)
            return True
        return False


class ReplicatedExecution(Execution):
    """Closed-loop clients on a 3-node chain; the head dies a third in."""

    def __init__(self, cfg, schedule: harness.Schedule, seed: int):
        super().__init__(cfg, World(seed=seed))
        self.schedule = schedule
        world, sim = self.world, self.sim
        cm = RdmaCm(sim)
        names = ["replica%d" % i for i in range(cfg.N_NODES)]
        self.directory = ClusterDirectory(world.tracer, names,
                                          replication=cfg.N_NODES, n_chains=1)
        rng = Rng(seed)
        self.nodes = [ReplicaNode(world, n, self.directory, cm,
                                  rng=rng.fork_named(n)) for n in names]
        self.clients: List[ReplicatedKvClient] = []
        for i in range(cfg.N_CONNS):
            host = world.add_host("cl%d" % i)
            libos = RdmaLibOS(host, world.add_rdma(host), cm,
                              name="cl%d.catmint" % i)
            self.clients.append(ReplicatedKvClient(
                libos, self.directory, rng.fork_named("cl%d.retry" % i)))
        self.liboses = ([c.libos for c in self.clients]
                        + [n.libos for n in self.nodes])
        self.serving_cores = [core for n in self.nodes
                              for core in n.host.cpus.cores]
        for node in self.nodes:
            node.start()
        world.run(until=sim.now + cfg.SYNC_NS)
        self.models = [_KeyModel(values) for values in schedule.preload]
        self.mark()
        self._run_all([self._preload(i) for i in range(cfg.N_CONNS)],
                      "preload")
        self.kill_after = cfg.N_CONNS * cfg.OPS_PER_CONN // 3
        self.killed_at_ns = 0

    def _key(self, client: int, key: int) -> bytes:
        return b"c%d-k%03d" % (client, key)

    def _preload(self, i: int) -> Generator:
        for key, value in enumerate(self.schedule.preload[i]):
            yield from self.clients[i].put(self._key(i, key), value)

    def _measure(self) -> None:
        self._run_all([self._leg(i, ops) for i, ops
                       in enumerate(self.schedule.rungs[0].ops)], "client")
        self.extra["failover_stall_ns"] = max(self.latencies)

    def _leg(self, i: int, ops: List[harness.Op]) -> Generator:
        client, model = self.clients[i], self.models[i]
        for op in ops:
            if op.due_ns:
                yield self.sim.timeout(op.due_ns)
            if self.attempted == self.kill_after:
                self._kill_head()
            self.attempted += 1
            name, start = self._key(i, op.key), self.sim.now
            try:
                if op.op == harness.SET:
                    model.maybe[op.key].append(op.value)
                    yield from client.put(name, op.value)
                    model.acked(op.key, op.value)
                else:
                    found, value = yield from client.get(name)
                    if not model.admissible(op.key, found, value):
                        self._lost(i, op.key)
                        continue
            except RetryBudgetExceeded:
                continue   # unanswered: counted as attempted, not completed
            self.done()
            self.latencies.append(self.sim.now - start)

    def _lost(self, client: int, key: int) -> None:
        self.extra["lost_acked_writes"] = self.extra.get(
            "lost_acked_writes", 0) + 1
        self.fail("client %d read key %d back without its acked write"
                  % (client, key))

    def _kill_head(self) -> None:
        head = self.directory.head(0)
        node = next(n for n in self.nodes if n.name == head)
        self.killed_at_ns = self.sim.now
        self.sim.spawn(node.crash(), name="perfbench.kill.%s" % head)

    def _readback(self) -> None:
        self.world.run(until=self.sim.now + self.cfg.SETTLE_NS)

        def leg(i: int) -> Generator:
            client, model = self.clients[i], self.models[i]
            for key in range(len(model.floor)):
                try:
                    found, value = yield from client.get(self._key(i, key))
                except RetryBudgetExceeded as err:
                    self.fail("final read of key %d never answered: %s"
                              % (key, err))
                    continue
                if not model.admissible(key, found, value):
                    self._lost(i, key)
            yield from client.close()

        self._run_all([leg(i) for i in range(len(self.clients))], "readback")

    def _stop_servers(self) -> None:
        survivors = [n for n in self.nodes if not n.crashed]
        if len(survivors) != self.cfg.N_NODES - 1:
            self.fail("expected exactly one dead replica, %d survive"
                      % len(survivors))
        applied = {n.chains[0].applied for n in survivors}
        if len(applied) > 1:
            self.fail("chain diverged after failover: applied=%s"
                      % sorted(applied))

    def finish(self) -> None:
        # Replicas hold raw QPs outside the qd table, so they exit through
        # their own crash path; only the clients take the generic one.
        self._readback()
        self._stop_servers()
        self._check_identities()
        self._run_all([n.crash() for n in self.nodes if not n.crashed]
                      + [crash_teardown(c.libos, None) for c in self.clients],
                      "exit")
        self.world.run(until=self.sim.now + QUIESCE_NS)
        self._check_reclaimed()


# ---------------------------------------------------------------------------
# Log store on SPDK: append, pop back, scan on the device (workload 5)
# ---------------------------------------------------------------------------

class StorelogExecution(Execution):
    """One host, no network: file-queue appends, reads and one scan.

    The latency samples are the appends, each timed until the fsync that
    makes it durable returns.  A buffered append alone, and a one-block
    read, cost the same on every seed, so neither can tell two runs apart;
    reads and the scan count into goodput instead.
    """

    def __init__(self, cfg, inputs: harness.LogInputs, seed: int):
        world, self.libos = make_spdk_libos(seed=seed)
        super().__init__(cfg, world)
        self.records = inputs.records
        self.fsync_after = set(inputs.fsync_after)
        self.liboses = [self.libos]
        self.serving_cores = list(self.libos.host.cpus.cores)
        self.qd = self._run(self.libos.creat("/perfbench"), "creat")

    def _measure(self) -> None:
        self._run(self._leg(), "storelog")

    def _leg(self) -> Generator:
        libos, sim = self.libos, self.sim
        n = len(self.records)
        self.attempted = 3 * n
        pushed_at: List[int] = []
        for i, record in enumerate(self.records):
            start = sim.now
            sga = libos.sga_alloc(record)
            result = yield from libos.blocking_push(self.qd, sga)
            libos.sga_free(sga)
            if result.error is not None:
                self.fail("append %d failed: %s" % (i, result.error))
            else:
                pushed_at.append(start)
            if i in self.fsync_after:
                yield from libos.fsync(self.qd)
                self.done(len(pushed_at))
                self.latencies.extend(sim.now - t for t in pushed_at)
                pushed_at = []
        read_qd = yield from libos.open("/perfbench")
        for i, record in enumerate(self.records):
            result = yield from libos.blocking_pop(read_qd)
            if result.error is not None:
                self.fail("read %d failed: %s" % (i, result.error))
                continue
            data = result.sga.tobytes()
            libos.sga_free(result.sga)
            if data != record:
                self.fail("read %d returned other bytes" % i)
                continue
            self.done()
        limit = self.cfg.SCAN_FIRST_BYTE_BELOW
        matches = yield from libos.store.scan(lambda p: p[0] < limit)
        wanted = [r for r in self.records if r[0] < limit]
        if [payload for _id, payload in matches] == wanted:
            self.done(n)
        else:
            self.fail("scan matched %d records, expected %d"
                      % (len(matches), len(wanted)))
        yield from libos.close(read_qd)

    def _readback(self) -> None:
        pass   # every record was read back inside the window

    def _stop_servers(self) -> None:
        self._run(self.libos.close(self.qd), "close")


def build(cfg, inputs, seed: int) -> Execution:
    """Set one execution of *cfg* up, ready to measure.

    *inputs* is what ``harness.make_inputs`` made from the seed; *seed*
    itself only seeds the world's own randomness (fabric drops, retry
    jitter).
    """
    cls = {"closed-shard": ClosedShardExecution, "open": OpenLoopExecution,
           "replicated": ReplicatedExecution,
           "storelog": StorelogExecution}[cfg.DRIVER]
    return cls(cfg, inputs, seed)
