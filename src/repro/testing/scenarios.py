"""The scenario driver: real workloads under fault plans + invariants.

:func:`run_scenario` is the one place a world is built for a run and the
one way a workload meets a plan - chaos scenarios, traces and every
experiment row alike.  It builds a fresh world for one stack kind (one
table: the libOS pairs, the SPDK host, the kernel-socket and mTCP pairs
the claim suite compares against, the dpdk pair with the offload engine,
the RSS-sharded server, the replica cluster), installs the
:class:`~repro.sim.faults.FaultPlan`, spawns the workload's legs (an
existing application: echo / key-value / log storage / replicated KV /
the open-loop load generator), joins them phase by phase, stops its
servers, quiesces, and then checks the invariants a Demikernel libOS
must uphold no matter how the devices misbehave:

1. **Exactly-once, in-order delivery** - the workload's own check: the
   reply stream is byte-identical to what a fault-free run would produce
   (echo replies equal the sent messages; KV GETs match a sequential
   replay of the operation log; storage reads back the appended records).
2. **QToken lifecycle** - :attr:`QTokenTable.identity_ok
   <repro.core.wait.QTokenTable.identity_ok>` on every libOS (N shards
   on one host are N libOSes), and workloads that ran to completion
   leave nothing in flight.
3. **No wake-ups without work** - ``waits`` never exceeds
   ``qtokens_completed`` (each wait return is backed by a completion).
4. **No DMA use-after-free** - no IOMMU ``*.faults`` counter fired
   (a :class:`~repro.memory.buffer.BufferError` would abort the run
   outright).
5. **Crash reclaim** - a host the plan killed owns nothing afterwards:
   every field of its :attr:`ScenarioResult.holdings` record is 0.

Workloads and golden scenarios are table rows (:data:`WORKLOADS`,
:data:`GOLDEN_SCENARIOS`).  Violations are collected on a
:class:`ScenarioResult` whose :meth:`~ScenarioResult.repro_line` prints
the exact ``(seed, plan)`` needed to replay the failure - reproducibility
is the whole contract (see :func:`check_reproducible`).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import fields
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..apps.echo import (demi_echo_client, demi_echo_server,
                         posix_echo_client, posix_echo_server)
from ..apps.kvstore import (OP_GET, OP_PUT, KvEngine, KvNicOffload,
                            UdpKvServer, demi_kv_client, kv_workload,
                            posix_kv_client, posix_kv_server)
from ..apps.proto import CODECS, KvEngineStore, LegacyKvCodec, ProtoServer
from ..apps.storelog import demi_log_writer, posix_log_writer
from ..bench.loadgen import (PORT, ConnMetrics, LoadConfig, connection,
                             shard_keys, steered_ports)
from ..cluster.client import (ReplicatedKvClient, shard_workload,
                              src_port_for_queue)
from ..cluster.replica import ClusterDirectory, ReplicaNode
from ..core.api import LibOS
from ..core.retry import RetryBudgetExceeded
from ..core.types import DeviceFailed
from ..kernelos.reclaim import crash_teardown, holdings
from ..libos.rdma_libos import RdmaLibOS
from ..rdma.cm import RdmaCm
from ..sim.faults import CRASH_KINDS, FaultPlan
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import counter_rollup, names
from ..testbed import (World, make_dpdk_libos_pair, make_kernel_pair,
                       make_mtcp_pair, make_posix_libos_pair,
                       make_rdma_libos_pair, make_sharded_kv_world,
                       make_spdk_libos, make_vfs_kernel)

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "scenario_problem",
    "plan_by_name",
    "named_plans",
    "WORKLOADS",
    "GOLDEN_SCENARIOS",
]

#: the network-facing libOS kinds every network scenario can run on
NET_LIBOS_KINDS = ("dpdk", "posix", "rdma")

_SERVER_ADDR = {"dpdk": "10.0.0.2", "posix": "10.0.0.2",
                "rdma": "server-rdma", "kernel": "10.0.0.2",
                "mtcp": "10.0.0.2"}

_US = 1_000
_MS = 1_000_000

#: wall-clock (simulated) budget for one workload leg
DEFAULT_LIMIT_NS = 3_000_000_000
#: post-workload drain so retransmit timers / TIME_WAIT retire
QUIESCE_NS = 20_000_000
#: closed-loop samples dropped per client before latency statistics:
#: every client's first ops pay ARP resolution and the TCP connect
WARMUP = 3


class ScenarioFailure(AssertionError):
    """A chaos scenario violated an invariant (message carries the repro)."""


class ScenarioResult:
    """Everything one scenario run produced, plus how to reproduce it."""

    def __init__(self, name: str, kind: str, plan: FaultPlan, world: World,
                 holdings: Dict[str, Dict[str, int]], failures: List[str],
                 data: Dict[str, Any]):
        self.name = name
        self.kind = kind
        self.plan = plan
        #: the finished world (tracer, hosts) for inspection
        self.world = world
        #: stable digest of counters + fault timeline (Tracer.signature)
        self.signature = world.tracer.signature()
        self.counters = world.tracer.snapshot()
        self.events: List[Tuple[int, str, Any]] = list(world.tracer.events)
        #: host name -> what it still owned when the run ended
        #: (:func:`~repro.kernelos.reclaim.holdings`)
        self.holdings = holdings
        self.failures = failures
        self.data = data

    @property
    def ok(self) -> bool:
        return not self.failures

    def repro_line(self) -> str:
        """One line that replays this exact run (the shrunk test case)."""
        return ("repro: scenario=%s kind=%s seed=%d plan=%s"
                % (self.name, self.kind, self.plan.seed, self.plan.to_json()))

    def require_ok(self) -> "ScenarioResult":
        if self.failures:
            raise ScenarioFailure(
                "scenario %r on %s violated %d invariant(s):\n  - %s\n%s"
                % (self.name, self.kind, len(self.failures),
                   "\n  - ".join(self.failures), self.repro_line()))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("ScenarioResult(%s/%s, %s, sig=%s)"
                % (self.name, self.kind,
                   "ok" if self.ok else "%d failures" % len(self.failures),
                   self.signature[:12]))


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------

def _check_libos(failures: List[str], libos, drained: bool,
                 crashed: bool) -> None:
    qt, counters = libos.qtokens, libos.counters
    if not qt.identity_ok:
        failures.append(
            "%s qtoken leak: created=%d != completed=%d + cancelled=%d"
            " + in_flight=%d" % (libos.name, counters.qtokens_created,
                                 counters.qtokens_completed,
                                 counters.qtokens_cancelled, qt.in_flight))
    if crashed:  # what reclaim left in flight, the host's holdings count
        return
    if drained and qt.in_flight:
        failures.append("%s finished with %d qtokens still in flight"
                        % (libos.name, qt.in_flight))
    if counters.waits > counters.qtokens_completed:
        failures.append("%s woke without work: %d waits > %d completions"
                        % (libos.name, counters.waits,
                           counters.qtokens_completed))


def _check_dma(failures: List[str], world) -> None:
    for name, value in world.tracer.counters.items():
        if name.endswith(".faults") and value:
            failures.append("DMA protection fault: %s=%d" % (name, value))


# ---------------------------------------------------------------------------
# World construction: one table.  A builder returns (world, the endpoints
# the legs call into, the server tier if it built one: the replica nodes or
# the sharded server); the driver installs the plan.
# ---------------------------------------------------------------------------

def _testbed(maker, **fixed):
    def build(seed: int, telemetry):
        world, *endpoints = maker(seed=seed, telemetry=telemetry, **fixed)
        return world, endpoints, None
    return build


def _sharded_server(seed: int, telemetry, cores: int = 1,
                    protocol: str = LegacyKvCodec.name):
    """*cores* shared-nothing shards behind one NIC (every shard its own
    libOS on the ``server`` host) and one client host per shard; the
    shards speak *protocol* and are built but not started."""
    world, server, clients = make_sharded_kv_world(
        cores, seed=seed, telemetry=telemetry, port=PORT,
        server_kwargs={"codec_factory": CODECS[protocol]})
    return world, clients + [shard.libos for shard in server.shards], server


def _replica_cluster(seed: int, telemetry, n_clients: int = 2):
    """A chain-replicated KV tier plus its client hosts, all over RDMA.

    Three hosts form one chain (head -> middle -> tail) so a plan's
    ``proc_crash("replicaN", at)`` targets an exact chain position.
    """
    world = World(seed=seed, telemetry=telemetry)
    cm = RdmaCm(world.sim)
    node_names = ["replica%d" % i for i in range(3)]
    directory = ClusterDirectory(world.tracer, node_names, n_chains=1)
    rng = Rng(seed)
    nodes = [ReplicaNode(world, node_name, directory, cm,
                         rng=rng.fork_named(node_name))
             for node_name in node_names]
    clients = []
    for i in range(n_clients):
        host = world.add_host("cl%d" % i)
        clients.append(RdmaLibOS(host, world.add_rdma(host), cm,
                                 name="cl%d.catmint" % i))
    return world, clients + [node.libos for node in nodes], nodes


# Every stack verifies IPv4, UDP and TCP checksums, so a corruption fault
# surfaces as a drop (and, on TCP, a retransmit), never as silent data
# damage, in every world alike.
_WORLDS = {
    "dpdk": _testbed(make_dpdk_libos_pair),
    "posix": _testbed(make_posix_libos_pair),
    "rdma": _testbed(make_rdma_libos_pair),
    "spdk": _testbed(make_spdk_libos),
    # The legacy stacks the claim suite measures the libOSes against:
    # their endpoints are kernels / mTCP shims, which mint no qtokens.
    "kernel": _testbed(make_kernel_pair),
    "mtcp": _testbed(make_mtcp_pair),
    "vfs": _testbed(make_vfs_kernel),
    "dpdk-offload": _testbed(make_dpdk_libos_pair, with_offload=True),
    "sharded": _sharded_server,
    "cluster": _replica_cluster,
}


class _Run:
    """One run's working state: what the driver hands a workload."""

    def __init__(self, world: World, endpoints, tier, kind: str, seed: int,
                 crashed):
        self.world = world
        self.sim = world.sim
        #: host name (the name fault plans use) -> what a leg on that host
        #: calls into (of N shards on one host, the first)
        self.libos: Dict[str, Any] = {}
        for each in endpoints:
            self.libos.setdefault(each.host.name, each)
        #: every libOS of the world: what the invariant checker walks
        self.liboses = [each for each in endpoints
                        if isinstance(each, LibOS)]
        #: the server tier the world row built, if any: the replica
        #: nodes or the sharded server
        self.tier = tier
        self.kind = kind
        #: the hosts the plan kills: a leg on one is reclaimed, not joined
        self.crashed = crashed
        self.rng = Rng(seed)
        self.failures: List[str] = []
        self.data: Dict[str, Any] = {}
        #: (server, its process): stopped by the driver once the legs join
        self.servers: List[Tuple[Any, Any]] = []
        #: libOSes that may keep a pop in flight after a clean run
        self.undrained: List[Any] = []
        #: a leg that never returns is an admissible outcome
        self.may_hang = False

    def payloads(self, count: int, size: int) -> List[bytes]:
        """*count* seeded random messages / records of *size* bytes."""
        rng = self.rng.fork_named("workload")
        return [rng.bytes(size) for _ in range(count)]

    def serve(self, server, name: str) -> None:
        """Spawn *server*; the driver stops it once the legs have joined,
        and a stopped server leaves no pop in flight."""
        self.servers.append((server, self.sim.spawn(server.start(),
                                                    name=name)))

    def on_crash(self, host: str, teardown, name: str) -> None:
        """When the plan kills *host*, spawn ``teardown()``."""
        self.world.injector.on_crash(host, lambda: self.sim.spawn(
            teardown(), name=name))


# ---------------------------------------------------------------------------
# Workloads.  Each is a generator the driver steps: it spawns a phase of legs
# and yields the processes to join, in order; the moment the last one joins
# it is resumed with their return values - to read what must be read before
# the servers stop, or to yield the next phase.  Its bare ``yield`` hands
# over to the driver (stop servers, quiesce, shared invariants); what follows
# is the workload's own check, which fills ``run.data``.
# ---------------------------------------------------------------------------

def _check_echo_stream(run: _Run, replies, messages) -> None:
    if replies != messages:
        intact = sum(1 for got, sent in zip(replies, messages) if got == sent)
        run.failures.append(
            "echo stream violated exactly-once in-order delivery:"
            " %d/%d replies intact (%d received)"
            % (intact, len(messages), len(replies)))


def _echo(run: _Run, n_messages: int, message_size: int,
          idle_timeout_ns: Optional[int], strict: bool):
    """Ping-pong echo under faults: every byte back, in order, once.

    When the plan kills the client, only the server is joined: it must
    see the death mid-stream (a reset on the TCP kinds) rather than hang;
    *idle_timeout_ns* backstops each of its pops, and *strict=False*
    keeps only the reclaim invariant, for a kill before the connect or
    after the last echo.
    """
    client = run.libos["client"]
    messages = run.payloads(n_messages, message_size)
    server_proc = run.sim.spawn(
        demi_echo_server(run.libos["server"], port=7,
                         max_requests=n_messages,
                         idle_timeout_ns=idle_timeout_ns),
        name="chaos.echo.server")
    client_proc = run.sim.spawn(
        demi_echo_client(client, _SERVER_ADDR[run.kind], messages, port=7),
        name="chaos.echo.client")
    if "client" in run.crashed:
        run.on_crash("client", lambda: crash_teardown(client, client_proc),
                     "chaos.crash.reclaim")
        # A client killed before it connects leaves the server in accept().
        run.may_hang = not strict
        (served, outcome), = yield [server_proc]
        yield
        if strict and served >= n_messages:
            run.failures.append("crash landed after the whole stream"
                                " finished (served=%d) - move proc_crash"
                                " earlier" % served)
        if strict and run.kind in ("dpdk", "posix") \
                and "reset" not in outcome:
            run.failures.append("peer did not observe the RST: outcome=%r"
                                " (expected a connection-reset error)"
                                % (outcome,))
        run.data.update(served=served, outcome=outcome)
        return
    (replies, stats), (served, _outcome) = yield [client_proc, server_proc]
    yield
    _check_echo_stream(run, replies, messages)
    if served != n_messages:
        run.failures.append("server served %d of %d requests"
                            % (served, n_messages))
    run.data.update(served=served, rtt_p50=stats.p50, rtt_max=stats.maximum)


#: kind -> (server, client): the two legacy stacks run the one legacy
#: application, every libOS kind the one portable Demikernel pair
_ECHO_APPS = {
    "kernel": (posix_echo_server, posix_echo_client),
    "mtcp": (posix_echo_server, posix_echo_client),
}


def _echo_rtt(run: _Run, count: int, message_size: int):
    """The claim suite's echo round trip on every stack, the legacy ones
    included: warm-up trimmed RTT plus the syscalls, copied bytes and
    interrupts the run cost per measured request (the warm-up's are in
    the totals).  Its ``data`` is the ``echo-rtt`` trajectory row."""
    serve, call = _ECHO_APPS.get(run.kind,
                                 (demi_echo_server, demi_echo_client))
    client, server = run.libos["client"], run.libos["server"]
    messages = [b"e" * message_size] * (count + WARMUP)
    # The server serves until its peer goes away, as a real one does; on
    # RDMA, which has no FIN, its last pop outlives the run.
    run.sim.spawn(serve(server), name="bench.echo.server")
    run.undrained.append(server)
    (replies, stats), = yield [run.sim.spawn(
        call(client, _SERVER_ADDR[run.kind], messages),
        name="bench.echo.client")]
    # Costs are read at the join: the teardown after it (FIN, TIME_WAIT)
    # belongs to no request.
    costs = counter_rollup(run.world.tracer, leaves=(
        "syscalls", "bytes_copied_tx", "bytes_copied_rx", "rx_interrupts"))
    yield
    _check_echo_stream(run, replies, messages)
    rtt = LatencyStats("echo-rtt")
    rtt.extend(stats.samples[WARMUP:])
    per_req = max(1, count)
    run.data.update(
        message_size=message_size,
        rtt_mean_ns=rtt.mean, rtt_p50_ns=rtt.p50, rtt_p99_ns=rtt.p99,
        syscalls_per_req=costs.get("syscalls", 0) / per_req,
        copies_bytes_per_req=(costs.get("bytes_copied_tx", 0)
                              + costs.get("bytes_copied_rx", 0)) / per_req,
        interrupts_per_req=costs.get("rx_interrupts", 0) / per_req)
    if not rtt.mean > 0:
        run.failures.append("no RTT samples recorded")


def _one_client(rng: Rng, n_ops: int, n_keys: int, value_size: int):
    """The ``kv`` op stream: one synchronous client over the whole key
    space."""
    return [kv_workload(rng, n_ops, n_keys=n_keys, value_size=value_size,
                        get_fraction=0.7)]


def _disjoint_clients(rng: Rng, n_clients: int, n_ops: int, n_keys: int,
                      value_size: int, get_fraction: float):
    """The ``kv-concurrent`` op streams: every client owns a disjoint key
    space (keys are prefixed with the client index), so concurrency
    cannot legitimately reorder observations within one connection."""
    return [[(op, b"c%d-" % i + key, value)
             for op, key, value in kv_workload(
                 rng.fork(i), n_ops, n_keys=n_keys, value_size=value_size,
                 get_fraction=get_fraction)]
            for i in range(n_clients)]


def _check_replay(run: _Run, logs, outputs) -> None:
    """Every op of every client's log completed, and every GET matches a
    sequential replay of that log: each client is synchronous and owns its
    keys, so a GET must observe exactly the PUTs before it."""
    for i, (ops, (results, _stats)) in enumerate(zip(logs, outputs)):
        model: Dict[bytes, bytes] = {}
        stale = 0
        for (op, key, value), result in zip(ops, results):
            if op == OP_PUT:
                model[key] = value
                continue
            found, got = result
            if found != (key in model) or (found and got != model[key]):
                stale += 1
        if stale:
            run.failures.append("client %d: %d GETs returned wrong/stale data"
                                % (i, stale))
        if len(results) != len(ops):
            run.failures.append("client %d completed %d of %d operations"
                                % (i, len(results), len(ops)))


def _kv(run: _Run, streams, **shape):
    """The paper's KV store under faults, checked against a replay model.

    One :class:`ProtoServer` serves one connection per op stream (each a
    closed loop) while the plan misbehaves underneath; *streams* derives
    the per-client operation logs and is the only difference between
    ``kv`` and ``kv-concurrent``.  The result's ``data`` carries the
    metrics the experiment trajectory persists: aggregate
    ``throughput_ops_per_s``, trimmed ``rtt_mean_ns`` / ``rtt_p99_ns``,
    and requests ``served``.
    """
    logs = streams(run.rng.fork_named("workload"), **shape)
    client, server = run.libos["client"], run.libos["server"]
    kv = ProtoServer(server, LegacyKvCodec,
                     KvEngineStore(KvEngine(server.host)), port=6379)
    run.serve(kv, "chaos.kv.server")
    outputs = yield [run.sim.spawn(
        demi_kv_client(client, _SERVER_ADDR[run.kind], ops, port=6379),
        name="chaos.kv.client%d" % i) for i, ops in enumerate(logs)]
    joined_at = run.sim.now
    yield
    _check_replay(run, logs, outputs)
    stats = LatencyStats("kv")
    for _results, client_stats in outputs:
        # Trim each client's cold start (ARP + connect) individually.
        stats.extend(client_stats.samples[WARMUP:])
    total_ops = sum(len(ops) for ops in logs)
    served = server.counters.proto_requests
    if served != total_ops:
        run.failures.append("server served %d of %d requests"
                            % (served, total_ops))
    run.data.update(
        served=served,
        clients=len(logs),
        elapsed_ns=joined_at,
        throughput_ops_per_s=(served / (joined_at / 1e9)
                              if joined_at else 0.0),
        rtt_mean_ns=stats.mean,
        rtt_p99_ns=stats.p99)


def _kv_rtt(run: _Run, n_gets: int, value_size: int):
    """One PUT, then GETs of that key: GET round trip and server CPU per
    request, the engine behind kernel sockets (a copy on every hop)
    against the libOS server that replies with the stored buffer - whose
    application service time per request (C1's ~2 us) is read too.  Its
    ``data`` is the ``kv-rtt`` trajectory row."""
    ops = ([(OP_PUT, b"bench-key", b"v" * value_size)]
           + [(OP_GET, b"bench-key", None)] * (n_gets + WARMUP))
    client, server = run.libos["client"], run.libos["server"]
    service = None
    if run.kind == "kernel":
        run.sim.spawn(posix_kv_server(server, KvEngine(server.host),
                                      max_requests=len(ops)),
                      name="bench.kv.server")
        (results, stats), = yield [run.sim.spawn(
            posix_kv_client(client, _SERVER_ADDR[run.kind], ops),
            name="bench.kv.client")]
        server_cpu_ns = server.host.cpus[0].busy_ns
    else:
        kv = ProtoServer(server, LegacyKvCodec,
                         KvEngineStore(KvEngine(server.host)), port=6379)
        run.serve(kv, "bench.kv.server")
        (results, stats), = yield [run.sim.spawn(
            demi_kv_client(client, _SERVER_ADDR[run.kind], ops),
            name="bench.kv.client")]
        # This figure has always included the dispatcher's last wake-up:
        # stop() completes its stop token and that wait dispatch is
        # charged at once (the driver's own stop() is then a no-op).
        kv.stop()
        server_cpu_ns = server.core.busy_ns
        service = kv.service_stats.samples[1 + WARMUP:]
    yield
    intact = sum(1 for result in results[1:]
                 if result == (True, b"v" * value_size))
    if intact != len(ops) - 1:
        run.failures.append("%d/%d GETs returned the stored value"
                            % (intact, len(ops) - 1))
    gets = LatencyStats("get")
    gets.extend(stats.samples[1 + WARMUP:])  # skip the PUT + warm-up
    run.data.update(value_size=value_size, get_rtt_mean_ns=gets.mean,
                    get_rtt_p99_ns=gets.p99,
                    server_cpu_per_req_ns=server_cpu_ns / len(ops))
    if service is not None:  # the libOS server's service time
        run.data["service_mean_ns"] = sum(service) / len(service)
    if not gets.mean > 0:
        run.failures.append("no GET samples recorded")


def _start_shards(run: _Run):
    """Start the sharded tier; returns its per-shard servers."""
    servers = [shard.server for shard in run.tier.shards]
    for index, server in enumerate(servers):
        run.serve(server, "shard%d.server" % index)
    return servers


def _kv_sharded(run: _Run, n_ops: int, n_keys: int, value_size: int,
                get_fraction: float):
    """Closed-loop sharded KV run: one steered client per shard.

    Every client pins its flow to its shard's RX queue and draws only
    that shard's keys, so the run also *measures* the wake-one claim:
    the row carries the wasted/cross wake-up totals (both must be zero)
    alongside throughput and per-core utilization.  Offered load scales
    with the shard count, so shared-nothing scaling shows as strictly
    increasing throughput across a ``cores`` axis - any flattening would
    mean cross-core serialization the architecture claims not to have.
    """
    server = run.tier
    n_shards = server.n_shards
    _start_shards(run)
    rng = run.rng.fork_named("kv-scaling")
    # Warmup is per *client*, so each one records into its own stats and
    # is trimmed individually - a global trim would leave n_shards-3
    # cold-start samples in the mean.
    per_client = [LatencyStats("kv-rtt-shard%d" % i)
                  for i in range(n_shards)]
    logs = [shard_workload(rng.fork(i), n_ops, i, n_shards, n_keys=n_keys,
                           value_size=value_size, get_fraction=get_fraction)
            for i in range(n_shards)]
    procs = []
    for i, ops in enumerate(logs):
        client = run.libos["client%d" % i]
        procs.append(run.sim.spawn(
            demi_kv_client(client, server.ip, ops, port=server.port,
                           stats=per_client[i],
                           src_port=src_port_for_queue(
                               client.ip, server.ip, i, n_shards,
                               server.port)),
            name="bench.client%d" % i))
    outputs = yield procs
    # The row is the run: read it before stop() wakes every dispatcher.
    row = server.metrics_row(run.sim.now)
    yield
    # Keys are disjoint across shards, so each client's replay is exact.
    _check_replay(run, logs, outputs)
    stats = LatencyStats("kv-rtt-sharded")
    for client_stats in per_client:
        stats.extend(client_stats.samples[WARMUP:])
    row["rtt_mean_ns"] = stats.mean
    row["rtt_p99_ns"] = stats.p99
    if row["wasted_wakeups"] != 0:
        run.failures.append("%d wasted wake-ups" % row["wasted_wakeups"])
    if row["cross_shard_wakeups"] != 0:
        run.failures.append("%d cross-shard wake-ups"
                            % row["cross_shard_wakeups"])
    if row["misrouted_requests"] != 0:
        run.failures.append("%d misrouted requests"
                            % row["misrouted_requests"])
    run.data.update(row)


def _kv_udp(run: _Run, n_keys: int, n_gets: int, value_size: int,
            nic_program: bool):
    """Closed-loop UDP KV: PUT the keyspace, hammer GETs, one miss.

    The trace is the same with and without *nic_program*; the only
    difference is whether :class:`KvNicOffload` is installed on the
    server NIC, so the host-CPU delta between the two runs is exactly
    the offloaded work.
    """
    client, server = run.libos["client"], run.libos["server"]
    srv = UdpKvServer(server, port=6379)
    prog = None
    if nic_program:
        prog = KvNicOffload(server.nic, srv.engine, server.ip, port=6379)
        prog.install()
    run.servers.append((srv, run.sim.spawn(srv.run(),
                                           name="kv-offload.server")))
    value = b"v" * value_size
    ops = ([(OP_PUT, b"key-%04d" % i, value) for i in range(n_keys)]
           + [(OP_GET, b"key-%04d" % (i % n_keys), None)
              for i in range(n_gets)]
           + [(OP_GET, b"missing", None)])
    (results, stats), = yield [run.sim.spawn(
        demi_kv_client(client, server.ip, ops, proto="udp"),
        name="kv-offload.client")]
    yield
    gets = [r for r in results if r is not None]
    got_ok = sum(1 for found, v in gets if found and v == value)
    got_missing = sum(1 for found, v in gets if not found)
    if got_ok != n_gets:
        run.failures.append("%d/%d GETs returned the value"
                            % (got_ok, n_gets))
    if got_missing != 1:
        run.failures.append("%d misses (expected 1)" % got_missing)
    # the world's NIC always has the engine: without the program these
    # counters stay 0
    offload = server.nic.offload.counters
    if prog is not None:
        if offload.offload_kv_hits != n_gets:
            run.failures.append("%d/%d GETs answered on the NIC"
                                % (offload.offload_kv_hits, n_gets))
        if srv.requests_served != n_keys:
            run.failures.append("host served %d requests, expected only"
                                " the %d PUTs"
                                % (srv.requests_served, n_keys))
    run.data.update(
        host_cpu_ns=server.core.busy_ns,
        host_cpu_per_op_ns=server.core.busy_ns // max(1, len(ops)),
        served_on_host=srv.requests_served,
        rtt_p50_ns=stats.percentile(50),
        hits=offload.offload_kv_hits, misses=offload.offload_kv_misses,
        steered=offload.offload_kv_steered, punts=offload.offload_kv_punts)


#: kind -> the log writer: the SPDK libOS's file queues, or the same
#: application through the kernel VFS's syscalls
_STORAGE_APPS = {"spdk": demi_log_writer, "vfs": posix_log_writer}


def _device_outcome(writer: Generator) -> Generator:
    """Run *writer*; returns ``(its value, None)`` or ``(None, the
    DeviceFailed it raised)``: an outcome to check, not an aborted run."""
    try:
        return (yield from writer), None
    except DeviceFailed as err:
        return None, err


def _storage(run: _Run, n_records: int, record_size: int, sync_every: int,
             device_fails: bool):
    """Append, fsync every *sync_every* records, read back - STOR's log
    writer under device faults: the fsync batch latency and the software
    taxes (syscalls, copied bytes, host CPU) the run paid.

    When the plan kills ``h`` nothing is joined, and the crash teardown
    reclaims the writer: on spdk it aborts its NVMe commands, on vfs it
    closes its file descriptor.  *device_fails* says the plan
    outlasts the NVMe recovery ladder: the writer must end in a typed
    :class:`DeviceFailed`, which fails any other run.
    """
    host = run.libos["h"]
    records = run.payloads(n_records, record_size)
    proc = run.sim.spawn(_device_outcome(
        _STORAGE_APPS[run.kind](host, records, sync_every=sync_every)),
        name="chaos.storage")

    def appended() -> int:  # the SPDK libOS counts them, the VFS does not
        return counter_rollup(run.world.tracer, leaves=(
            names.FILE_APPENDS,)).get(names.FILE_APPENDS, 0)

    if "h" in run.crashed:
        run.on_crash("h", lambda: crash_teardown(host, proc),
                     "chaos.crash.reclaim")
        yield  # nothing to join: the driver runs the world past the crash
        if proc.alive:
            run.failures.append("workload still running after the crash"
                                " fired")
        run.data.update(appended=appended())
        return
    (written, err), = yield [proc]
    costs = counter_rollup(run.world.tracer, leaves=(
        "syscalls", "bytes_copied_tx", "bytes_copied_rx"))
    host_cpu_ns = host.host.cpus.total_busy_ns()
    yield
    if device_fails or err is not None:
        nvme = host.host.nvme
        if err is None:
            run.failures.append("device outage never surfaced: fsync"
                                " completed without DeviceFailed")
        else:
            if not device_fails:
                run.failures.append("the recovery ladder gave up: %s" % err)
            if err.device != nvme.name:
                run.failures.append("DeviceFailed names device %r, expected"
                                    " %r" % (err.device, nvme.name))
            run.data.update(failed_op=err.op, attempts=err.attempts)
        if nvme.counters.device_failures < 1:
            run.failures.append("recovery ladder never recorded a device"
                                " failure")
        run.data.update(appended=appended())
        return
    stats, readback = written
    if readback != records:
        intact = sum(1 for got, put in zip(readback, records) if got == put)
        run.failures.append("storage read-back mismatch: %d/%d records intact"
                            % (intact, n_records))
    run.data.update(
        batch_mean_ns=stats.mean, batch_p99_ns=stats.p99,
        syscalls=costs.get("syscalls", 0),
        bytes_copied=(costs.get("bytes_copied_tx", 0)
                      + costs.get("bytes_copied_rx", 0)),
        host_cpu_ns=host_cpu_ns)


def _log_scan_legs(libos, records: Sequence[bytes], predicate,
                   on_device: bool) -> Generator:
    """Returns (matches, host CPU ns of the scan, its wall-clock ns)."""
    qd = yield from libos.creat("/log")
    for record in records:
        sga = libos.sga_alloc(record)
        yield from libos.blocking_push(qd, sga)
        libos.sga_free(sga)
    yield from libos.fsync(qd)
    cpu_start, start = libos.core.busy_ns, libos.sim.now
    scan = libos.store.scan if on_device else libos.store.scan_host
    matches = yield from scan(predicate)
    scan_cpu_ns, scan_wall_ns = (libos.core.busy_ns - cpu_start,
                                 libos.sim.now - start)
    yield from libos.close(qd)
    return matches, scan_cpu_ns, scan_wall_ns


def _log_scan(run: _Run, n_records: int, on_device: bool):
    """Append + fsync a log, then predicate-scan it: the in-controller
    predicate loop (only matches cross PCIe) or the host read loop."""
    libos = run.libos["h"]
    records = [b"rec-%04d:%s" % (i, b"x" * (50 + i % 37))
               for i in range(n_records)]

    def predicate(payload):
        return payload[4:8].isdigit() and int(payload[4:8]) % 7 == 0

    (matches, scan_cpu_ns, scan_wall_ns), = yield [run.sim.spawn(
        _log_scan_legs(libos, records, predicate, on_device),
        name="storelog-scan")]
    yield
    expected = [record for record in records if predicate(record)]
    if [payload for _id, payload in matches] != expected:
        run.failures.append("scan returned %d records, the log holds %d"
                            " that match" % (len(matches), len(expected)))
    counters = counter_rollup(libos.host.tracer, leaves=("scans", "reads"))
    run.data.update(
        scan_cpu_ns=scan_cpu_ns,
        scan_cpu_per_record_ns=scan_cpu_ns // max(1, n_records),
        scan_wall_ns=scan_wall_ns,
        nvme_scans=counters.get("scans", 0),
        nvme_reads=counters.get("reads", 0),
        scan_matches=len(matches))


class _KeyTracker:
    """Per-key linearizability bookkeeping for one client's (disjoint) keys.

    Chain replication's contract after an acknowledged write: a read may
    never travel backwards past it.  ``floor`` is the newest value known
    committed for a key; ``pending`` holds values whose PUT was attempted
    *after* the floor but never acknowledged (each is "maybe applied" -
    the client gave up, the chain may or may not have kept it).  A read
    is admissible iff it returns the floor or one of those pending
    values; observing a pending value proves it committed, so it becomes
    the new floor and everything attempted before it is superseded.
    """

    def __init__(self) -> None:
        self.floor: Dict[bytes, bytes] = {}
        self.pending: Dict[bytes, List[bytes]] = {}
        self.acked = 0

    def attempt(self, key: bytes, value: bytes) -> None:
        self.pending.setdefault(key, []).append(value)

    def ack(self, key: bytes, value: bytes) -> None:
        self.acked += 1
        self._promote(key, value)

    def _promote(self, key: bytes, value: bytes) -> None:
        pend = self.pending.get(key, [])
        if value in pend:
            del pend[:pend.index(value) + 1]
        self.floor[key] = value

    def observe(self, key: bytes, found: bool,
                value: Optional[bytes]) -> Optional[str]:
        """``None`` if the read is admissible, else the violation."""
        floor = self.floor.get(key)
        pend = self.pending.get(key, [])
        if not found or value is None:
            if floor is not None:
                return ("GET %r found nothing but %r was acknowledged"
                        % (key, floor))
            return None  # never acked: a miss is always admissible
        value = bytes(value)
        if floor is not None and value == floor:
            return None
        if value in pend:
            self._promote(key, value)
            return None
        return ("GET %r returned %r; admissible were floor=%r or "
                "unacked-pending=%r" % (key, value, floor, pend))

    def keys(self) -> List[bytes]:
        return sorted(set(self.floor) | set(self.pending))


def _replica_client_legs(client: ReplicatedKvClient, index: int,
                         rng: Rng, tracker: _KeyTracker,
                         violations: List[str], n_ops: int, n_keys: int,
                         value_size: int, settle_ns: int) -> Generator:
    """One client's workload leg against the replicated tier.

    Writes only its own key prefix (so per-key operation order is total
    and the tracker's model is exact), mixes in reads, rides out every
    transient via the router's retry loop, and - after the dust settles -
    re-reads every key it ever touched: the direct check that no
    acknowledged write was lost across the failover.
    """
    sim = client.libos.sim
    yield sim.timeout(50 * _US)  # let the chains finish their initial sync
    for op_index in range(n_ops):
        key = b"c%d-k%02d" % (index, rng.randint(0, n_keys - 1))
        if op_index % 4 == 3 and key in tracker.pending:
            try:
                found, value = yield from client.get(key)
            except RetryBudgetExceeded:
                continue  # an unanswered read asserts nothing
            problem = tracker.observe(key, found, value)
            if problem is not None:
                violations.append(problem)
        else:
            value = b"c%d-v%04d-" % (index, op_index)
            value += rng.bytes(max(0, value_size - len(value)))
            tracker.attempt(key, value)
            try:
                yield from client.put(key, value)
            except RetryBudgetExceeded:
                continue  # unacked: may or may not have committed
            tracker.ack(key, value)
    yield sim.timeout(settle_ns)
    for key in tracker.keys():
        try:
            found, value = yield from client.get(key)
        except RetryBudgetExceeded as err:
            violations.append("final read of %r never answered: %s"
                              % (key, err))
            continue
        problem = tracker.observe(key, found, value)
        if problem is not None:
            violations.append("after failover: %s" % problem)
    yield from client.close()


def _kv_replicated(run: _Run, n_ops: int, n_keys: int, value_size: int,
                   settle_ns: int):
    """Kill one replica of a chain mid-stream; the tier must not blink.

    Clients keep writing through the crash via the retrying router.
    Checked, beyond the usual libOS/DMA/reclaim invariants: **no
    acknowledged write is lost** and every read is linearizable per key
    (the :class:`_KeyTracker` model), the survivors converge (equal
    ``applied``, equal logs - no entry logged twice or out of order -
    and ``applied == len(log)`` - no entry logged and stranded), no pump
    was woken for nothing (``empty_polls``, the ring's
    ``wasted_wakeups``) and the failover actually happened
    (directory epoch bumped; chain spliced, if the victim ever held a
    link to splice around).
    """
    nodes = run.tier
    directory = nodes[0].directory
    clients = [ReplicatedKvClient(libos, directory,
                                  run.rng.fork_named("%s.retry" % host))
               for host, libos in run.libos.items()
               if host not in directory.node_names]
    for node in nodes:
        node.start()
        run.on_crash(node.host.name, node.crash, "%s.crash" % node.name)
        run.undrained.append(node.libos)
    trackers = [_KeyTracker() for _ in clients]
    violations: List[str] = []
    yield [run.sim.spawn(_replica_client_legs(
        client, i, run.rng.fork_named("cl%d.ops" % i), trackers[i],
        violations, n_ops, n_keys, value_size, settle_ns),
        name="chaos.replica.cl%d" % i) for i, client in enumerate(clients)]
    yield
    run.failures.extend(violations)
    # -- replica convergence: the chain agrees after the splice -------------
    dead = [n for n in nodes if n.crashed]
    survivors = [n for n in nodes if not n.crashed]
    for chain_id in range(directory.n_chains):
        states = [(n.name, n.chains[chain_id].applied,
                   len(n.chains[chain_id].log))
                  for n in survivors if chain_id in n.chains
                  and n.name in directory.chain_members(chain_id)]
        if len({applied for _, applied, _ in states}) > 1:
            run.failures.append("chain %d diverged after failover: %s"
                                % (chain_id, states))
        elif len({tuple(n.chains[chain_id].log) for n in survivors
                  if n.name in directory.chain_members(chain_id)}) > 1:
            run.failures.append("chain %d's members logged different "
                                "entries" % chain_id)
        for node_name, applied, logged in states:
            if applied != logged:
                run.failures.append(
                    "chain %d on %s left %d logged entries unapplied"
                    % (chain_id, node_name, logged - applied))
    # -- a pump is woken by the write that lands its record, only -----------
    for node in survivors:
        for chain_id, chain in sorted(node.chains.items()):
            if chain.up is not None and chain.up.consumer.empty_polls:
                run.failures.append(
                    "chain %d on %s: %d ring wake-ups found no record"
                    % (chain_id, node.name, chain.up.consumer.empty_polls))
    # -- the failover must actually have been exercised ---------------------
    acked = sum(t.acked for t in trackers)
    splices = sum(n.counters.repl_chain_splices for n in nodes)
    failovers = directory.counters.repl_failovers
    if dead and not failovers:
        run.failures.append(
            "a replica died but the directory never failed over")
    # A splice is owed only around a victim that held a link: one that
    # completed a heartbeat had a peer on the other end of it.
    linked = any(n.counters.repl_heartbeats for n in dead)
    if linked and not splices:
        run.failures.append(
            "a replica died but no survivor spliced the chain")
    if not acked:
        run.failures.append(
            "no write was ever acknowledged - nothing was tested")
    rtt = LatencyStats("repl-rtt")
    for client in clients:
        rtt.extend(client.stats.samples)
    run.data.update(
        acked=acked, lost_acked=len(violations),
        rtt_p99_ns=int(rtt.p99) if rtt.samples else 0,
        failovers=failovers, splices=splices,
        log_replayed=sum(n.counters.repl_entries_replayed for n in nodes),
        client_retries=sum(c.libos.counters.repl_client_retries
                           for c in clients))


def _offer_load(run: _Run, cfg: LoadConfig, servers, server_ip: str,
                lanes) -> Generator:
    """Open-loop load against *servers*: preload, then the measured window.

    A lane is ``(client libOS, the keys it may touch, source-port
    allocator or None)``; connection *i* runs on lane ``i % len(lanes)``.
    Every lane preloads its keys through a connection of its own, one
    lane after the other, before the measured connections spawn.
    """
    codec_cls = servers[0].codec_factory
    rng = run.rng.fork_named("loadgen.%s" % codec_cls.name)
    stats = LatencyStats("loadgen-rtt")
    metrics = ConnMetrics()
    for libos, keys, alloc in lanes:
        values = rng.fork_named("preload")
        puts = [(OP_PUT, key, values.bytes(cfg.value_size)) for key in keys]
        yield [run.sim.spawn(
            demi_kv_client(libos, server_ip, puts, port=PORT,
                           src_port=alloc() if alloc else None,
                           codec=codec_cls()),
            name="loadgen.preload")]
    measure_start = run.sim.now
    procs = []
    for conn_id in range(cfg.n_connections):
        libos, keys, alloc = lanes[conn_id % len(lanes)]
        procs.append(run.sim.spawn(
            connection(libos, cfg, codec_cls, rng.fork(100 + conn_id),
                       conn_id, server_ip, keys, stats, metrics,
                       src_port_alloc=alloc),
            name="loadgen.conn%d" % conn_id))
    yield procs
    # Goodput is over the window the connections ran, not the quiesce.
    elapsed_ns = run.sim.now - measure_start
    yield
    # lanes that share a libOS name share its counter scope: count it once
    clients = {libos.counters.prefix: libos.counters
               for libos, _keys, _alloc in lanes}.values()
    run.data.update(
        offered_ops_per_s=cfg.rate_ops_per_s,
        elapsed_ns=elapsed_ns,
        sent=metrics.sent,
        completed=metrics.completed,
        goodput_ops_per_s=round(
            metrics.completed / (elapsed_ns / 1e9 if elapsed_ns else 1.0), 1),
        p50_ns=stats.percentile(50),
        p99_ns=stats.percentile(99),
        p999_ns=stats.percentile(99.9),
        client_decode_errors=metrics.client_decode_errors,
        server_decode_errors=sum(s.libos.counters.proto_decode_errors
                                 for s in servers),
        error_replies=sum(s.libos.counters.proto_error_replies
                          for s in servers),
        reconnects=sum(c.loadgen_reconnects for c in clients),
        stalls=sum(c.loadgen_stalls for c in clients),
        server_requests=sum(s.libos.counters.proto_requests
                            for s in servers))


def _open_loop(run: _Run, protocol: str, **knobs):
    """One offered-load point against one :class:`ProtoServer` speaking
    *protocol*; *knobs* are :class:`~repro.bench.loadgen.LoadConfig`'s."""
    cfg = LoadConfig(**knobs)
    client, server = run.libos["client"], run.libos["server"]
    kv = ProtoServer(server, CODECS[protocol],
                     KvEngineStore(KvEngine(server.host, name="loadgen.kv")),
                     port=PORT)
    run.serve(kv, "loadgen.server")
    keys = [b"key-%06d" % j for j in range(cfg.n_keys)]
    yield from _offer_load(run, cfg, [kv], _SERVER_ADDR[run.kind],
                           [(client, keys, None)])


def _open_loop_sharded(run: _Run, **knobs):
    """The same point against the sharded server: one lane per shard,
    its connections RSS-steered to the shard's RX queue and drawing only
    the keys that shard owns."""
    cfg = LoadConfig(**knobs)
    tier = run.tier
    lanes = []
    for shard, keys in enumerate(shard_keys(cfg.n_keys, tier.n_shards)):
        client = run.libos["client%d" % shard]
        lanes.append((client, keys, steered_ports(client.ip, tier.ip, shard,
                                                  tier.n_shards)))
    yield from _offer_load(run, cfg, _start_shards(run), tier.ip, lanes)


#: every :class:`~repro.bench.loadgen.LoadConfig` knob at its default: the
#: open-loop rows' keywords
_LOAD_KNOBS = {knob.name: knob.default for knob in fields(LoadConfig)}

#: name -> the stack kinds it runs on, its ``legs`` and ``params``, every
#: keyword the legs take at its default (the one place a workload's
#: defaults are written: ``repro.experiments`` reads them from here);
#: ``world`` picks a world-table row other than the kind's, ``shape``
#: names the keywords that row's builder takes.  A new workload is one
#: row here; a fault - a crash included - is a plan, never a row.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "echo": {"kinds": NET_LIBOS_KINDS, "legs": _echo,
             "params": {"n_messages": 20, "message_size": 512,
                        "idle_timeout_ns": None, "strict": True}},
    "echo-rtt": {"kinds": ("kernel", "mtcp") + NET_LIBOS_KINDS,
                 "legs": _echo_rtt,
                 "params": {"count": 20, "message_size": 64}},
    "kv": {"kinds": NET_LIBOS_KINDS,
           "legs": partial(_kv, streams=_one_client),
           "params": {"n_ops": 40, "n_keys": 32, "value_size": 256}},
    "kv-concurrent": {"kinds": NET_LIBOS_KINDS,
                      "legs": partial(_kv, streams=_disjoint_clients),
                      "params": {"n_clients": 2, "n_ops": 40, "n_keys": 16,
                                 "value_size": 256, "get_fraction": 0.7}},
    "kv-rtt": {"kinds": ("kernel", "dpdk"), "legs": _kv_rtt,
               "params": {"n_gets": 20, "value_size": 1024}},
    "kv-sharded": {"kinds": ("dpdk",), "legs": _kv_sharded,
                   "world": "sharded", "shape": ("cores",),
                   "params": {"n_ops": 200, "n_keys": 32, "value_size": 256,
                              "get_fraction": 0.9}},
    "kv-udp": {"kinds": ("dpdk",), "legs": _kv_udp,
               "world": "dpdk-offload",
               "params": {"n_keys": 20, "n_gets": 200, "value_size": 64,
                          "nic_program": False}},
    "open-loop": {"kinds": ("dpdk", "posix"), "legs": _open_loop,
                  "params": {"protocol": "resp", **_LOAD_KNOBS}},
    "open-loop-sharded": {"kinds": ("dpdk",), "legs": _open_loop_sharded,
                          "world": "sharded",
                          "shape": ("cores", "protocol"),
                          "params": _LOAD_KNOBS},
    "storage": {"kinds": ("spdk", "vfs"), "legs": _storage,
                "params": {"n_records": 12, "record_size": 2048,
                           "sync_every": 12, "device_fails": False}},
    "log-scan": {"kinds": ("spdk",), "legs": _log_scan,
                 "params": {"n_records": 400, "on_device": False}},
    "kv-replicated": {
        "kinds": ("rdma",), "legs": _kv_replicated, "world": "cluster",
        "shape": ("n_clients",),
        "params": {"n_ops": 40, "n_keys": 8, "value_size": 64,
                   "settle_ns": 2 * _MS},
    },
}


# ---------------------------------------------------------------------------
# Golden scenarios (the chaos battery)
# ---------------------------------------------------------------------------

def _kill_replica(index: int):
    # Chain 0 over three nodes is exactly [replica0, replica1,
    # replica2], so the index picks the chain position by name.
    return lambda kind: (FaultPlan(seed=1201 + index)
                         .proc_crash("replica%d" % index, 200 * _US))


#: name -> which workload drives it, which libOS kinds it runs on,
#: ``plan(kind)``, its pinned fault plan, and ``params``, laid over the
#: workload's defaults and under the caller's keywords.  A new scenario is
#: one row here.
#:
#: Windows are sized to each transport's retry budget: the RDMA
#: transport aborts the QP after ~8 retries at a ~10us RTO, so its
#: blackouts stay under ~50us where TCP (RTO 100us..5ms, 6 SYN / 12
#: data retries) tolerates milliseconds.
GOLDEN_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "handshake-loss": {
        "workload": "echo", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "total loss burst while the connection is being set up",
        # The rdmacm rendezvous is off-fabric, so on rdma the burst
        # targets the first data exchange (~61us in) instead of the SYNs.
        "plan": lambda kind: (
            FaultPlan(seed=101).loss(55 * _US, 95 * _US, rate=1.0)
            if kind == "rdma"
            else FaultPlan(seed=101).loss(0, 280 * _US, rate=1.0)),
    },
    "reorder-dup-storm": {
        "workload": "kv", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "heavy reordering + duplication across the whole run",
        "plan": lambda kind: (
            FaultPlan(seed=202)
            .reorder(0, 3 * _MS, rate=0.4,
                     jitter_ns=5 * _US if kind == "rdma" else 30 * _US)
            .duplicate(0, 3 * _MS, rate=0.3)),
    },
    "partition-heal": {
        "workload": "kv", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "a full partition mid-workload that heals",
        "plan": lambda kind: FaultPlan(seed=303).partition(
            None, None, 300 * _US,
            300 * _US + (50 * _US if kind == "rdma" else 1 * _MS)),
    },
    "rx-ring-overflow": {
        "workload": "echo", "kinds": ("dpdk",),
        "blurb": "the server NIC's RX ring collapses to zero for a window",
        "plan": lambda kind: FaultPlan(seed=404).nic_ring_clamp(
            "server.dpdk0", 200 * _US, 500 * _US, limit=0),
    },
    "slow-nvme": {
        "workload": "storage", "kinds": ("spdk", "vfs"),
        "blurb": "a 40x slow-flash window during appends",
        "plan": lambda kind: FaultPlan(seed=505).nvme_slow(
            "nvme0", 0, 3 * _MS, factor=40.0),
    },
    "corruption-storm": {
        "workload": "echo", "kinds": ("dpdk", "posix"),
        "blurb": "random bit flips that only L4 checksums can catch",
        "plan": lambda kind: FaultPlan(seed=606).corrupt(0, 2 * _MS,
                                                         rate=0.25),
    },
    "crash-mid-stream": {
        "workload": "echo", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "the client process is killed mid-stream; the kernel"
                 " reclaims its resources and the peer sees a reset",
        "params": {"n_messages": 600, "message_size": 128,
                   "idle_timeout_ns": 5 * _MS},
        # Pinned mid-stream: each kind's echo cadence differs, so the
        # kill lands while roughly half the messages are outstanding.
        "plan": lambda kind: FaultPlan(seed=707).proc_crash(
            "client",
            {"dpdk": 400 * _US, "posix": 2 * _MS, "rdma": 300 * _US}[kind]),
    },
    "crash-storage": {
        "workload": "storage", "kinds": ("spdk", "vfs"),
        "blurb": "the storage process dies with NVMe commands in flight",
        "params": {"n_records": 8, "record_size": 2048, "sync_every": 4},
        "plan": lambda kind: FaultPlan(seed=808).proc_crash("h", 200 * _US),
    },
    "nvme-transient-outage": {
        "workload": "storage", "kinds": ("spdk", "vfs"),
        "blurb": "a controller-failure window the retry ladder outlasts",
        # Ends before the ladder exhausts: a retry (or the post-reset
        # attempt) lands after the window and the workload completes.
        "plan": lambda kind: FaultPlan(seed=909).nvme_ctrl_fail(
            "nvme0", 0, 350 * _US),
    },
    "nvme-fatal-outage": {
        "workload": "storage", "kinds": ("spdk",),
        "blurb": "a controller failure outlasting the ladder: typed"
                 " DeviceFailed surfaces from wait",
        "params": {"n_records": 6, "record_size": 1024,
                   "device_fails": True},
        # Outlasts the whole ladder: typed DeviceFailed must surface.
        "plan": lambda kind: FaultPlan(seed=1010).nvme_ctrl_fail(
            "nvme0", 0, DEFAULT_LIMIT_NS),
    },
    "link-flap": {
        "workload": "echo", "kinds": ("dpdk", "posix"),
        "blurb": "the client NIC loses carrier mid-stream; rings"
                 " re-initialize and ARP relearns on recovery",
        "plan": lambda kind: FaultPlan(seed=1111).nic_link_flap(
            "client.dpdk0" if kind == "dpdk" else "client.eth0",
            200 * _US if kind == "dpdk" else 1 * _MS, down_ns=250 * _US),
    },
    "replica-crash-head": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "the chain head dies mid-stream; clients fail over to"
                 " the new head and no acknowledged write is lost",
        "plan": _kill_replica(0),
    },
    "replica-crash-middle": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "a middle replica dies; the chain splices around it and"
                 " replays the log suffix to the tail",
        "plan": _kill_replica(1),
    },
    "replica-crash-tail": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "the tail (the commit point) dies; its predecessor"
                 " becomes the tail, acks what it logged and had not"
                 " applied, and reads stay linearizable",
        "plan": _kill_replica(2),
    },
}


def golden_plan(name: str, kind: str = "dpdk") -> FaultPlan:
    """The pinned fault plan for one golden scenario on one libOS kind."""
    row = GOLDEN_SCENARIOS.get(name)
    if row is None:
        raise KeyError("unknown golden scenario %r (have: %s)"
                       % (name, ", ".join(sorted(GOLDEN_SCENARIOS))))
    return row["plan"](kind)


def named_plans() -> Tuple[str, ...]:
    """Every plan name :func:`plan_by_name` resolves."""
    return tuple(sorted(GOLDEN_SCENARIOS) + ["none"])


def plan_by_name(name: str, kind: str = "dpdk",
                 seed: Optional[int] = None) -> FaultPlan:
    """Resolve a plan name to a concrete :class:`FaultPlan`.

    This is the experiment layer's handle on fault plans: an
    ``ExperimentSpec`` can say ``fault_plan="partition-heal"`` and get
    the same pinned windows the chaos battery runs, sized for its libOS
    kind.  ``"none"`` resolves to an empty plan.  When *seed* is given
    it replaces the plan's pinned seed (the chaos battery's
    seed-override pattern), so an experiment spec's seed drives every
    stochastic fault decision.
    """
    plan = FaultPlan(seed=1) if name == "none" else golden_plan(name, kind)
    if seed is not None:
        plan = FaultPlan(seed=seed, events=list(plan.events))
    return plan


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def scenario_problem(name: str, kind: str) -> Optional[str]:
    """Why :func:`run_scenario` would refuse *name* on *kind*, or ``None``."""
    golden = GOLDEN_SCENARIOS.get(name)
    workload = WORKLOADS.get(golden["workload"] if golden else name)
    if workload is None:
        return "unknown scenario %r (have: %s)" % (
            name, ", ".join(sorted(set(GOLDEN_SCENARIOS) | set(WORKLOADS))))
    kinds = (golden or workload)["kinds"]
    if kind not in kinds:
        return ("scenario %r does not run on %r (only %s)"
                % (name, kind, ", ".join(kinds)))
    return None


def run_scenario(name: str, kind: str, plan: Optional[FaultPlan] = None,
                 telemetry=False, **params) -> ScenarioResult:
    """Run one golden scenario, or a bare workload under a given plan.

    *name* is a :data:`GOLDEN_SCENARIOS` row (*plan* defaults to its
    pinned plan) or a :data:`WORKLOADS` row (*plan* is required).
    *params* are the workload's own keywords (``n_messages``, ``n_ops``,
    ``strict``, ...), laid over its row's ``params`` (a golden row's over
    its workload's); :data:`DEFAULT_LIMIT_NS` bounds each joined leg.
    The legs know which hosts the plan kills before they spawn.  The
    loop is always the same: build -> install the plan -> spawn and
    join, phase by phase -> stop servers -> quiesce -> check; a run that
    does not finish is recorded and still gets every check that holds
    for an undrained world.
    """
    problem = scenario_problem(name, kind)
    if problem is not None:
        raise ValueError(problem)
    golden = GOLDEN_SCENARIOS.get(name)
    workload = WORKLOADS[golden["workload"] if golden else name]
    if plan is None:
        plan = golden_plan(name, kind)
    params = {**workload.get("params", {}),
              **(golden or {}).get("params", {}), **params}
    shape = {key: params.pop(key) for key in workload.get("shape", ())
             if key in params}
    world, endpoints, tier = _WORLDS[workload.get("world", kind)](
        plan.seed, telemetry, **shape)
    world.tracer.keep_events = True
    world.install_faults(plan)
    crashes = [e for e in plan.events if e.kind in CRASH_KINDS]
    crashed = {e.host for e in crashes}
    run = _Run(world, endpoints, tier, kind, plan.seed, crashed)
    sim, failures = world.sim, run.failures
    check = workload["legs"](run, **params)
    legs = next(check)
    while legs is not None:  # one phase of legs; None is the bare yield
        try:
            outputs = [sim.run_until_complete(
                proc, limit=sim.now + DEFAULT_LIMIT_NS) for proc in legs]
        except Exception as err:
            # Timeouts AND hard workload errors (a transport giving up, a
            # buffer fault) must surface as reportable failures: the
            # repro line matters most exactly when the run blows up.
            if not run.may_hang:
                failures.append("workload did not finish: %s: %s"
                                % (type(err).__name__, err))
            # The abandoned legs run no more user code, so one dying
            # later cannot take the quiesce down with it.
            for proc in legs:
                proc.interrupt("abandoned")
            break
        legs = check.send(outputs)
    finished = legs is None
    for server, _proc in run.servers:
        server.stop()
    for _server, proc in run.servers:
        try:
            sim.run_until_complete(proc, limit=sim.now + 100 * _MS)
        except Exception as err:
            failures.append("server failed to stop: %s: %s"
                            % (type(err).__name__, err))
    # A crash the plan schedules lands before the checks run even when it
    # is the workload's only exit (a killed storage writer joins nothing).
    world.run(until=max([sim.now] + [e.end for e in crashes]) + QUIESCE_NS)
    held = {name: holdings(host, [each for each in run.liboses
                                  if each.host is host])
            for name, host in sorted(world.hosts.items())}
    counters = world.tracer.counters
    for host in sorted(crashed):
        if not counters.get("%s.%s.runs" % (host, names.RECLAIM)):
            failures.append("crash teardown never ran on %s (no proc_crash"
                            " fired?)" % host)
        kept = {field: n for field, n in held.get(host, {}).items() if n}
        if kept:
            failures.append("%s still holds %s after reclaim" % (host, kept))
    for each in run.liboses:
        _check_libos(failures, each, finished and each not in run.undrained,
                     each.host.name in crashed)
    _check_dma(failures, world)
    if finished:
        with suppress(StopIteration):  # the workload's own check returns
            next(check)
    run.data["finished_at"] = sim.now
    return ScenarioResult(name, kind, plan, world, held, failures, run.data)


def check_reproducible(runner, *args, **kw) -> Tuple[ScenarioResult,
                                                     ScenarioResult]:
    """Run a scenario twice and demand bit-identical traces.

    This is the subsystem's core promise: a failure reproduces from
    ``(seed, plan)`` alone, so two runs must agree on every counter and
    every fault-timeline entry.
    """
    first = runner(*args, **kw)
    second = runner(*args, **kw)
    if first.signature != second.signature:
        raise ScenarioFailure(
            "non-deterministic scenario: signatures %s vs %s differ\n%s"
            % (first.signature, second.signature, first.repro_line()))
    return first, second
