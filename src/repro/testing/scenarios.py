"""Chaos scenario runner: real workloads under fault plans + invariants.

Each ``run_*_scenario`` builds a fresh two-host world for one libOS
kind, installs a :class:`~repro.sim.faults.FaultPlan`, drives an
existing application (echo / key-value / log storage) to completion,
and then checks the invariants a Demikernel libOS must uphold no matter
how the devices misbehave:

1. **Exactly-once, in-order delivery** - the client's reply stream is
   byte-identical to what a fault-free run would produce (echo replies
   equal the sent messages; KV GETs match a sequential replay of the
   operation log; storage reads back the appended records).
2. **QToken lifecycle** - ``created == completed + cancelled +
   in_flight`` on every libOS, and workloads that ran to completion
   leave nothing in flight.
3. **No wake-ups without work** - ``waits`` never exceeds
   ``qtokens_completed`` (each wait return is backed by a completion).
4. **No DMA use-after-free** - no IOMMU ``*.faults`` counter fired
   (a :class:`~repro.memory.buffer.BufferError` would abort the run
   outright).

Violations are collected on a :class:`ScenarioResult` whose
:meth:`~ScenarioResult.repro_line` prints the exact ``(seed, plan)``
needed to replay the failure - reproducibility is the whole contract
(see :func:`check_reproducible`).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..apps.echo import demi_echo_client, demi_echo_server
from ..apps.kvstore import (OP_GET, OP_PUT, KvEngine, demi_kv_client,
                            kv_workload)
from ..apps.proto import KvEngineStore, LegacyKvCodec, ProtoServer
from ..cluster.client import ReplicatedKvClient
from ..cluster.replica import ClusterDirectory, ReplicaNode
from ..core.retry import RetryBudgetExceeded
from ..core.types import DemiTimeout, DeviceFailed
from ..kernelos.reclaim import crash_teardown
from ..libos.rdma_libos import RdmaLibOS
from ..rdma.cm import RdmaCm
from ..sim.engine import SimulationError
from ..sim.faults import FaultPlan, register_plan
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import names
from ..testbed import (World, make_dpdk_libos_pair, make_posix_libos_pair,
                       make_rdma_libos_pair, make_spdk_libos)

__all__ = [
    "NET_LIBOS_KINDS",
    "ALL_LIBOS_KINDS",
    "ScenarioFailure",
    "ScenarioResult",
    "run_echo_scenario",
    "run_kv_scenario",
    "run_kv_concurrent_scenario",
    "run_storage_scenario",
    "run_crash_echo_scenario",
    "run_crash_storage_scenario",
    "run_nvme_outage_scenario",
    "run_replica_crash_scenario",
    "run_scenario",
    "check_reproducible",
    "golden_plan",
    "GOLDEN_SCENARIOS",
]

#: the network-facing libOS kinds every network scenario can run on
NET_LIBOS_KINDS = ("dpdk", "posix", "rdma")
#: every libOS kind the runner knows how to build
ALL_LIBOS_KINDS = NET_LIBOS_KINDS + ("spdk",)

_SERVER_ADDR = {"dpdk": "10.0.0.2", "posix": "10.0.0.2",
                "rdma": "server-rdma"}

_US = 1_000
_MS = 1_000_000

#: wall-clock (simulated) budget for one workload leg
DEFAULT_LIMIT_NS = 3_000_000_000
#: post-workload drain so retransmit timers / TIME_WAIT retire
QUIESCE_NS = 20_000_000


class ScenarioFailure(AssertionError):
    """A chaos scenario violated an invariant (message carries the repro)."""


class ScenarioResult:
    """Everything one scenario run produced, plus how to reproduce it."""

    def __init__(self, name: str, kind: str, plan: FaultPlan,
                 signature: str, counters: Dict[str, int],
                 events: List[Tuple[int, str, Any]],
                 failures: List[str], data: Optional[Dict[str, Any]] = None):
        self.name = name
        self.kind = kind
        self.plan = plan
        #: stable digest of counters + fault timeline (Tracer.signature)
        self.signature = signature
        self.counters = counters
        self.events = events
        self.failures = failures
        self.data = data or {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

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

def _check_libos(failures: List[str], world, libos, drained: bool) -> None:
    qt = libos.qtokens
    if qt.created != qt.completed + qt.cancelled + qt.in_flight:
        failures.append(
            "%s qtoken leak: created=%d != completed=%d + cancelled=%d"
            " + in_flight=%d" % (libos.name, qt.created, qt.completed,
                                 qt.cancelled, qt.in_flight))
    if drained and qt.in_flight:
        failures.append("%s finished with %d qtokens still in flight"
                        % (libos.name, qt.in_flight))
    waits = world.tracer.get("%s.waits" % libos.name)
    completed = world.tracer.get("%s.qtokens_completed" % libos.name)
    if waits > completed:
        failures.append("%s woke without work: %d waits > %d completions"
                        % (libos.name, waits, completed))


def _check_reclaimed(failures: List[str], libos) -> None:
    """The crash-reclaim invariant: after teardown the dead process owns
    *nothing* - no registered buffers, no IOMMU mappings, no queue
    descriptors, no kernel fds, no in-flight qtokens or NVMe commands."""
    host = libos.host
    if host.mm.live_buffer_count:
        failures.append("%s leaked %d registered buffers after reclaim"
                        % (host.name, host.mm.live_buffer_count))
    if host.mm.registered_bytes():
        failures.append("%s kept %d bytes of registered regions after"
                        " reclaim" % (host.name, host.mm.registered_bytes()))
    for nic in host.nics:
        if nic.iommu.mapped_ranges:
            failures.append("%s IOMMU still maps %d range(s) after reclaim"
                            % (nic.name, nic.iommu.mapped_ranges))
    nvme = getattr(host, "nvme", None)
    if nvme is not None and nvme.inflight_commands:
        failures.append("%s still has %d NVMe command(s) in flight after"
                        " reclaim" % (nvme.name, nvme.inflight_commands))
    if libos._queues:
        failures.append("%s qd table not empty after reclaim: %s"
                        % (libos.name, sorted(libos._queues)))
    qt = libos.qtokens
    if qt.in_flight:
        failures.append("%s kept %d qtoken(s) in flight after reclaim"
                        % (libos.name, qt.in_flight))
    if qt.created != qt.completed + qt.cancelled:
        failures.append(
            "%s qtoken identity broken after reclaim: created=%d !="
            " completed=%d + cancelled=%d"
            % (libos.name, qt.created, qt.completed, qt.cancelled))
    if host.kernel is not None and host.kernel._fds:
        failures.append("%s kernel fd table not empty after reclaim: %s"
                        % (host.name, sorted(host.kernel._fds)))


def _check_dma(failures: List[str], world) -> None:
    for name, value in world.tracer.counters.items():
        if name.endswith(".faults") and value:
            failures.append("DMA protection fault: %s=%d" % (name, value))


def _finish(world, name: str, kind: str, plan: FaultPlan,
            failures: List[str], data: Dict[str, Any]) -> ScenarioResult:
    return ScenarioResult(name=name, kind=kind, plan=plan,
                          signature=world.tracer.signature(),
                          counters=world.tracer.snapshot(),
                          events=list(world.tracer.events),
                          failures=failures, data=data)


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def _build_net_pair(kind: str, plan: FaultPlan, telemetry=False):
    """(world, client libOS, server libOS) with the plan installed.

    TCP-based kinds verify L4 checksums so corruption faults surface as
    drops + retransmits rather than silent data damage.
    """
    if kind == "dpdk":
        w, client, server = make_dpdk_libos_pair(seed=plan.seed,
                                                 verify_checksums=True,
                                                 telemetry=telemetry)
    elif kind == "posix":
        w, client, server = make_posix_libos_pair(seed=plan.seed,
                                                  verify_checksums=True,
                                                  telemetry=telemetry)
    elif kind == "rdma":
        w, client, server = make_rdma_libos_pair(seed=plan.seed,
                                                 telemetry=telemetry)
    else:
        raise ValueError("unknown network libOS kind %r" % (kind,))
    w.tracer.keep_events = True
    w.install_faults(plan)
    return w, client, server


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def run_echo_scenario(kind: str, plan: FaultPlan, name: str = "echo",
                      n_messages: int = 20, message_size: int = 512,
                      limit_ns: int = DEFAULT_LIMIT_NS,
                      telemetry=False) -> ScenarioResult:
    """Ping-pong echo under faults: every byte back, in order, once."""
    world, client, server = _build_net_pair(kind, plan, telemetry=telemetry)
    rng = Rng(plan.seed).fork_named("workload")
    messages = [rng.bytes(message_size) for _ in range(n_messages)]
    server_proc = world.sim.spawn(
        demi_echo_server(server, port=7, max_requests=n_messages),
        name="chaos.echo.server")
    client_proc = world.sim.spawn(
        demi_echo_client(client, _SERVER_ADDR[kind], messages, port=7),
        name="chaos.echo.client")
    failures: List[str] = []
    data: Dict[str, Any] = {}
    try:
        replies, stats = world.sim.run_until_complete(
            client_proc, limit=world.sim.now + limit_ns)
        served = world.sim.run_until_complete(
            server_proc, limit=world.sim.now + limit_ns)
    except Exception as err:
        # Timeouts AND hard workload errors (a transport giving up, a
        # buffer fault) must surface as reportable failures: the repro
        # line matters most exactly when the run blows up.
        failures.append("workload did not finish: %s: %s"
                        % (type(err).__name__, err))
        return _finish(world, name, kind, plan, failures, data)
    world.run(until=world.sim.now + QUIESCE_NS)
    if replies != messages:
        intact = sum(1 for got, sent in zip(replies, messages)
                     if got == sent)
        failures.append(
            "echo stream violated exactly-once in-order delivery:"
            " %d/%d replies intact (%d received)"
            % (intact, n_messages, len(replies)))
    if served != n_messages:
        failures.append("server served %d of %d requests"
                        % (served, n_messages))
    for libos in (client, server):
        _check_libos(failures, world, libos, drained=True)
    _check_dma(failures, world)
    data.update(served=served, rtt_p50=stats.p50, rtt_max=stats.maximum,
                finished_at=world.sim.now)
    return _finish(world, name, kind, plan, failures, data)


def run_kv_scenario(kind: str, plan: FaultPlan, name: str = "kv",
                    n_ops: int = 40, n_keys: int = 32,
                    value_size: int = 256,
                    limit_ns: int = DEFAULT_LIMIT_NS,
                    telemetry=False) -> ScenarioResult:
    """The paper's KV store under faults, checked against a replay model."""
    world, client, server = _build_net_pair(kind, plan, telemetry=telemetry)
    rng = Rng(plan.seed).fork_named("workload")
    ops = kv_workload(rng, n_ops, n_keys=n_keys, value_size=value_size,
                      get_fraction=0.7)
    kv = ProtoServer(server, LegacyKvCodec,
                     KvEngineStore(KvEngine(server.host)), port=6379)
    server_proc = world.sim.spawn(kv.start(), name="chaos.kv.server")
    client_proc = world.sim.spawn(
        demi_kv_client(client, _SERVER_ADDR[kind], ops, port=6379),
        name="chaos.kv.client")
    failures: List[str] = []
    data: Dict[str, Any] = {}
    try:
        results, stats = world.sim.run_until_complete(
            client_proc, limit=world.sim.now + limit_ns)
    except Exception as err:
        failures.append("workload did not finish: %s: %s"
                        % (type(err).__name__, err))
        return _finish(world, name, kind, plan, failures, data)
    kv.stop()
    try:
        world.sim.run_until_complete(server_proc,
                                     limit=world.sim.now + 100 * _MS)
    except Exception as err:
        failures.append("kv server failed to stop: %s: %s"
                        % (type(err).__name__, err))
    world.run(until=world.sim.now + QUIESCE_NS)
    # Replay the operation log sequentially: the client is synchronous,
    # so every GET must observe exactly the preceding PUTs.
    model: Dict[bytes, bytes] = {}
    stale = 0
    for (op, key, value), result in zip(ops, results):
        if op == OP_PUT:
            model[key] = value
            continue
        found, got = result
        expect_found = key in model
        if found != expect_found or (found and got != model[key]):
            stale += 1
    if stale:
        failures.append("%d of %d GETs returned wrong/stale data"
                        % (stale, sum(1 for op, _, _ in ops
                                      if op == OP_GET)))
    if len(results) != n_ops:
        failures.append("client completed %d of %d operations"
                        % (len(results), n_ops))
    if kv.requests_served != n_ops:
        failures.append("server served %d of %d requests"
                        % (kv.requests_served, n_ops))
    # The server may legitimately hold one in-flight pop on a connection
    # the client abandoned (RDMA has no FIN); the identity still holds.
    _check_libos(failures, world, client, drained=True)
    _check_libos(failures, world, server, drained=False)
    _check_dma(failures, world)
    data.update(served=kv.requests_served, rtt_p50=stats.p50,
                finished_at=world.sim.now)
    return _finish(world, name, kind, plan, failures, data)


def run_kv_concurrent_scenario(kind: str, plan: FaultPlan,
                               name: str = "kv-concurrent",
                               n_clients: int = 2, n_ops: int = 40,
                               n_keys: int = 16, value_size: int = 256,
                               get_fraction: float = 0.7,
                               limit_ns: int = DEFAULT_LIMIT_NS,
                               telemetry=False) -> ScenarioResult:
    """The KV store under faults with *n_clients* closed loops at once.

    This is the experiment layer's generic matrix workload: one
    :class:`ProtoServer` serves ``n_clients`` concurrent connections
    (each a closed loop of ``n_ops`` operations) while the plan
    misbehaves underneath.  Every client owns a disjoint key space
    (keys are prefixed with the client index), so each reply stream is
    checked against its own sequential replay - concurrency cannot
    legitimately reorder observations within one connection.

    The result's ``data`` carries the throughput/latency metrics the
    experiment trajectory persists: aggregate ``throughput_ops_per_s``,
    trimmed ``rtt_mean_ns`` / ``rtt_p99_ns``, and ``requests`` served.
    """
    world, client, server = _build_net_pair(kind, plan, telemetry=telemetry)
    rng = Rng(plan.seed).fork_named("workload")
    kv = ProtoServer(server, LegacyKvCodec,
                     KvEngineStore(KvEngine(server.host)), port=6379)
    server_proc = world.sim.spawn(kv.start(), name="chaos.kv.server")
    per_client_ops = []
    procs = []
    for i in range(n_clients):
        ops = [(op, b"c%d-" % i + key, value)
               for op, key, value in kv_workload(
                   rng.fork(i), n_ops, n_keys=n_keys,
                   value_size=value_size, get_fraction=get_fraction)]
        per_client_ops.append(ops)
        procs.append(world.sim.spawn(
            demi_kv_client(client, _SERVER_ADDR[kind], ops, port=6379),
            name="chaos.kv.client%d" % i))
    failures: List[str] = []
    data: Dict[str, Any] = {}
    outputs = []
    try:
        for proc in procs:
            outputs.append(world.sim.run_until_complete(
                proc, limit=world.sim.now + limit_ns))
    except Exception as err:
        failures.append("workload did not finish: %s: %s"
                        % (type(err).__name__, err))
        return _finish(world, name, kind, plan, failures, data)
    elapsed_ns = world.sim.now
    kv.stop()
    try:
        world.sim.run_until_complete(server_proc,
                                     limit=world.sim.now + 100 * _MS)
    except Exception as err:
        failures.append("kv server failed to stop: %s: %s"
                        % (type(err).__name__, err))
    world.run(until=world.sim.now + QUIESCE_NS)
    # Per-client replay: disjoint key spaces make each model independent.
    total_ops = n_clients * n_ops
    stats = LatencyStats("kv-concurrent")
    for i, (ops, (results, client_stats)) in enumerate(
            zip(per_client_ops, outputs)):
        model: Dict[bytes, bytes] = {}
        stale = 0
        for (op, key, value), result in zip(ops, results):
            if op == OP_PUT:
                model[key] = value
                continue
            found, got = result
            expect_found = key in model
            if found != expect_found or (found and got != model[key]):
                stale += 1
        if stale:
            failures.append("client %d: %d GETs returned wrong/stale data"
                            % (i, stale))
        if len(results) != n_ops:
            failures.append("client %d completed %d of %d operations"
                            % (i, len(results), n_ops))
        # Trim each client's cold start (ARP + connect) individually.
        stats.extend(client_stats.samples[3:])
    if kv.requests_served != total_ops:
        failures.append("server served %d of %d requests"
                        % (kv.requests_served, total_ops))
    _check_libos(failures, world, client, drained=True)
    _check_libos(failures, world, server, drained=False)
    _check_dma(failures, world)
    data.update(
        requests=kv.requests_served,
        clients=n_clients,
        elapsed_ns=elapsed_ns,
        throughput_ops_per_s=(kv.requests_served / (elapsed_ns / 1e9)
                              if elapsed_ns else 0.0),
        rtt_mean_ns=stats.mean,
        rtt_p99_ns=stats.p99,
        finished_at=world.sim.now,
    )
    return _finish(world, name, kind, plan, failures, data)


def _storage_workload(libos, records: Sequence[bytes]) -> Generator:
    qd = yield from libos.creat("/chaos")
    for record in records:
        result = yield from libos.blocking_push(qd, libos.sga_alloc(record))
        if result.error is not None:
            raise SimulationError("append failed: %s" % result.error)
    flushed = yield from libos.fsync(qd)
    qd2 = yield from libos.open("/chaos")
    out: List[bytes] = []
    for _ in records:
        result = yield from libos.blocking_pop(qd2)
        if result.error is not None:
            raise SimulationError("read failed: %s" % result.error)
        out.append(result.sga.tobytes())
    return out, flushed


def run_storage_scenario(plan: FaultPlan, name: str = "storage",
                         n_records: int = 12, record_size: int = 2048,
                         limit_ns: int = DEFAULT_LIMIT_NS,
                         telemetry=False) -> ScenarioResult:
    """Append + fsync + read-back on the SPDK libOS under device faults."""
    world, libos = make_spdk_libos(seed=plan.seed, telemetry=telemetry)
    world.tracer.keep_events = True
    world.install_faults(plan)
    rng = Rng(plan.seed).fork_named("workload")
    records = [rng.bytes(record_size) for _ in range(n_records)]
    proc = world.sim.spawn(_storage_workload(libos, records),
                           name="chaos.storage")
    failures: List[str] = []
    data: Dict[str, Any] = {}
    try:
        out, flushed = world.sim.run_until_complete(
            proc, limit=world.sim.now + limit_ns)
    except Exception as err:
        failures.append("workload did not finish: %s: %s"
                        % (type(err).__name__, err))
        return _finish(world, name, "spdk", plan, failures, data)
    world.run(until=world.sim.now + QUIESCE_NS)
    if out != list(records):
        intact = sum(1 for got, put in zip(out, records) if got == put)
        failures.append("storage read-back mismatch: %d/%d records intact"
                        % (intact, n_records))
    _check_libos(failures, world, libos, drained=True)
    _check_dma(failures, world)
    data.update(flushed=flushed, finished_at=world.sim.now)
    return _finish(world, name, "spdk", plan, failures, data)


def _crash_echo_server(libos, port: int, n_limit: int,
                       idle_timeout_ns: int) -> Generator:
    """An echo server that survives its peer's death.

    Unlike :func:`~repro.apps.echo.demi_echo_server` it breaks on *push*
    errors too (an RDMA peer's death surfaces on the send side as
    ``retry-exceeded``) and backstops the pop with a timeout - RDMA RC
    gives no wire-visible crash signal while the server is quiescent, so
    failure detection needs a timer, exactly as on real verbs hardware.
    Returns ``(served, outcome)`` where *outcome* names what ended the
    session.
    """
    listen_qd = yield from libos.socket()
    yield from libos.bind(listen_qd, port)
    yield from libos.listen(listen_qd)
    qd = yield from libos.accept(listen_qd)
    served = 0
    outcome = "served-all"
    while served < n_limit:
        token = libos.pop(qd)
        try:
            _idx, result = yield from libos.wait_any([token],
                                                     timeout_ns=idle_timeout_ns)
        except DemiTimeout:
            libos.cancel(token)
            outcome = "idle-timeout"
            break
        if result.error is not None:
            outcome = result.error
            break
        reply = yield from libos.blocking_push(qd, result.sga)
        if reply.error is not None:
            outcome = reply.error
            break
        served += 1
    yield from libos.close(qd)
    yield from libos.close(listen_qd)
    return served, outcome


def run_crash_echo_scenario(kind: str, plan: FaultPlan,
                            name: str = "crash-mid-stream",
                            n_messages: int = 600, message_size: int = 128,
                            idle_timeout_ns: int = 5 * _MS,
                            limit_ns: int = DEFAULT_LIMIT_NS,
                            strict: bool = True,
                            telemetry=False) -> ScenarioResult:
    """Kill the client mid-stream; the kernel reclaims, the peer unblocks.

    The plan's ``proc_crash("client", at)`` event interrupts the client
    application with pushes/pops outstanding and runs
    :func:`~repro.kernelos.reclaim.crash_teardown`.  Checked: the crash-
    reclaim invariant on the dead host (buffers=0, IOMMU=0, empty qd/fd
    tables) and the peer-visible semantics - the server observes an
    RST-driven reset error (TCP kinds) instead of hanging until RTO
    exhaustion.  *strict=False* relaxes the timing/outcome assertions
    (for property tests that sweep the crash over the whole horizon,
    including before connect and after the stream ends) while keeping
    the reclamation invariant itself.
    """
    world, client, server = _build_net_pair(kind, plan, telemetry=telemetry)
    rng = Rng(plan.seed).fork_named("workload")
    messages = [rng.bytes(message_size) for _ in range(n_messages)]
    server_proc = world.sim.spawn(
        _crash_echo_server(server, 7, n_messages, idle_timeout_ns),
        name="chaos.crash.server")
    client_proc = world.sim.spawn(
        demi_echo_client(client, _SERVER_ADDR[kind], messages, port=7),
        name="chaos.crash.client")
    reports: List[Any] = []
    world.injector.on_crash(client.host.name, lambda: world.sim.spawn(
        crash_teardown(client, client_proc, report_to=reports),
        name="chaos.crash.reclaim"))
    failures: List[str] = []
    data: Dict[str, Any] = {}
    served, outcome = -1, "hung"
    try:
        served, outcome = world.sim.run_until_complete(
            server_proc, limit=world.sim.now + limit_ns)
    except Exception as err:
        if strict:
            failures.append("surviving peer hung after crash: %s: %s"
                            % (type(err).__name__, err))
    world.run(until=world.sim.now + QUIESCE_NS)
    if not reports:
        failures.append("crash teardown never ran (no proc_crash fired?)")
    else:
        data["reclaim"] = reports[0].as_dict()
    if strict:
        if served >= n_messages:
            failures.append("crash landed after the whole stream finished"
                            " (served=%d) - move proc_crash earlier" % served)
        if kind in ("dpdk", "posix") and "reset" not in outcome:
            failures.append(
                "peer did not observe the RST: outcome=%r (expected a"
                " connection-reset error)" % (outcome,))
        _check_libos(failures, world, server, drained=True)
    _check_reclaimed(failures, client)
    _check_dma(failures, world)
    data.update(served=served, outcome=outcome, finished_at=world.sim.now)
    return _finish(world, name, kind, plan, failures, data)


def _crash_storage_workload(libos, records: Sequence[bytes]) -> Generator:
    """Append forever, fsyncing every few records - the crash is the only
    exit, so NVMe commands are periodically in flight when it lands."""
    qd = yield from libos.creat("/chaos")
    appended = 0
    while True:
        record = records[appended % len(records)]
        result = yield from libos.blocking_push(qd, libos.sga_alloc(record))
        if result.error is not None:
            return appended
        appended += 1
        if appended % 4 == 0:
            yield from libos.fsync(qd)


def run_crash_storage_scenario(plan: FaultPlan, name: str = "crash-storage",
                               n_records: int = 8, record_size: int = 2048,
                               limit_ns: int = DEFAULT_LIMIT_NS,
                               telemetry=False) -> ScenarioResult:
    """Kill the SPDK storage process mid-append; reclaim aborts the NVMe
    commands it left in flight and frees its registered heap."""
    world, libos = make_spdk_libos(seed=plan.seed, telemetry=telemetry)
    world.tracer.keep_events = True
    world.install_faults(plan)
    rng = Rng(plan.seed).fork_named("workload")
    records = [rng.bytes(record_size) for _ in range(n_records)]
    proc = world.sim.spawn(_crash_storage_workload(libos, records),
                           name="chaos.crash.storage")
    reports: List[Any] = []
    world.injector.on_crash(libos.host.name, lambda: world.sim.spawn(
        crash_teardown(libos, proc, report_to=reports),
        name="chaos.crash.reclaim"))
    failures: List[str] = []
    data: Dict[str, Any] = {}
    world.run(until=world.sim.now + plan.horizon + QUIESCE_NS)
    if proc.alive:
        failures.append("workload still running after the crash fired")
    if not reports:
        failures.append("crash teardown never ran (no proc_crash fired?)")
    else:
        data["reclaim"] = reports[0].as_dict()
    _check_reclaimed(failures, libos)
    _check_dma(failures, world)
    data.update(appended=world.tracer.get("%s.file_appends" % libos.name),
                finished_at=world.sim.now)
    return _finish(world, name, "spdk", plan, failures, data)


def _nvme_outage_workload(libos, records: Sequence[bytes]) -> Generator:
    """Append then fsync into a dead controller; returns the typed
    :class:`DeviceFailed` the recovery ladder surfaces (or None)."""
    qd = yield from libos.creat("/outage")
    appended = 0
    for record in records:
        result = yield from libos.blocking_push(qd, libos.sga_alloc(record))
        if result.error is not None:
            break
        appended += 1
    try:
        yield from libos.fsync(qd)
    except DeviceFailed as err:
        return appended, err
    return appended, None


def run_nvme_outage_scenario(plan: FaultPlan, name: str = "nvme-outage",
                             n_records: int = 6, record_size: int = 1024,
                             limit_ns: int = DEFAULT_LIMIT_NS,
                             telemetry=False) -> ScenarioResult:
    """A controller failure the retry ladder cannot outlast: the flush
    climbs timeout -> abort -> retry -> controller reset, exhausts its
    attempts, and surfaces a *typed* :class:`DeviceFailed` from the
    fsync instead of hanging or returning a stringly error."""
    world, libos = make_spdk_libos(seed=plan.seed, telemetry=telemetry)
    world.tracer.keep_events = True
    world.install_faults(plan)
    rng = Rng(plan.seed).fork_named("workload")
    records = [rng.bytes(record_size) for _ in range(n_records)]
    proc = world.sim.spawn(_nvme_outage_workload(libos, records),
                           name="chaos.nvme.outage")
    failures: List[str] = []
    data: Dict[str, Any] = {}
    try:
        appended, err = world.sim.run_until_complete(
            proc, limit=world.sim.now + limit_ns)
    except Exception as err2:
        failures.append("workload did not finish: %s: %s"
                        % (type(err2).__name__, err2))
        return _finish(world, name, "spdk", plan, failures, data)
    world.run(until=world.sim.now + QUIESCE_NS)
    if err is None:
        failures.append("device outage never surfaced: fsync completed"
                        " without DeviceFailed")
    else:
        if err.device != libos.nvme.name:
            failures.append("DeviceFailed names device %r, expected %r"
                            % (err.device, libos.nvme.name))
        data.update(failed_op=err.op, attempts=err.attempts)
    if world.tracer.get("%s.device_failures" % libos.nvme.name) < 1:
        failures.append("recovery ladder never recorded a device failure")
    _check_libos(failures, world, libos, drained=True)
    _check_dma(failures, world)
    data.update(appended=appended, finished_at=world.sim.now)
    return _finish(world, name, "spdk", plan, failures, data)


# ---------------------------------------------------------------------------
# Golden scenarios (the chaos battery)
# ---------------------------------------------------------------------------

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


def _replica_client_driver(client: ReplicatedKvClient, index: int,
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


def run_replica_crash_scenario(kind: str, plan: FaultPlan,
                               name: str = "replica-crash-head",
                               n_nodes: int = 3, replication: int = 3,
                               n_chains: int = 1, n_clients: int = 2,
                               n_ops: int = 40, n_keys: int = 8,
                               value_size: int = 64,
                               settle_ns: int = 2 * _MS,
                               limit_ns: int = DEFAULT_LIMIT_NS,
                               telemetry=False) -> ScenarioResult:
    """Kill one replica of a chain mid-stream; the tier must not blink.

    Three hosts form one chain (head -> middle -> tail) so the plan's
    ``proc_crash("replicaN", at)`` targets an exact chain position.
    Clients keep writing through the crash via the retrying router.
    Checked, beyond the usual libOS/DMA/reclaim invariants: **no
    acknowledged write is lost** and every read is linearizable per key
    (the :class:`_KeyTracker` model), the survivors converge (equal
    ``applied``, ``committed == applied``), the failover actually
    happened (directory epoch bumped, chain spliced), and the dead host
    reclaims to zero buffers / zero IOMMU mappings.
    """
    if kind != "rdma":
        raise ValueError("replicated-KV scenarios run on 'rdma' only")
    world = World(seed=plan.seed, telemetry=telemetry)
    world.tracer.keep_events = True
    sim = world.sim
    cm = RdmaCm(sim)
    node_names = ["replica%d" % i for i in range(n_nodes)]
    directory = ClusterDirectory(world.tracer, node_names,
                                 replication=replication, n_chains=n_chains)
    base_rng = Rng(plan.seed)
    nodes = [ReplicaNode(world, node_name, directory, cm,
                         rng=base_rng.fork_named(node_name))
             for node_name in node_names]
    clients: List[ReplicatedKvClient] = []
    for i in range(n_clients):
        host = world.add_host("cl%d" % i)
        nic = world.add_rdma(host)
        libos = RdmaLibOS(host, nic, cm, name="cl%d.catmint" % i)
        clients.append(ReplicatedKvClient(
            libos, directory, base_rng.fork_named("cl%d.retry" % i)))
    world.install_faults(plan)
    for node in nodes:
        node.start()
    reports: List[Any] = []
    for node in nodes:
        world.injector.on_crash(
            node.host.name,
            (lambda n: lambda: sim.spawn(n.crash(report_to=reports),
                                         name="%s.crash" % n.name))(node))
    trackers = [_KeyTracker() for _ in range(n_clients)]
    violations: List[str] = []
    client_procs = [
        sim.spawn(_replica_client_driver(
            clients[i], i, base_rng.fork_named("cl%d.ops" % i), trackers[i],
            violations, n_ops, n_keys, value_size, settle_ns),
            name="chaos.replica.cl%d" % i)
        for i in range(n_clients)]

    def _join() -> Generator:
        for proc in client_procs:
            yield proc
        return "done"

    failures: List[str] = []
    data: Dict[str, Any] = {}
    try:
        sim.run_until_complete(sim.spawn(_join(), name="chaos.replica.join"),
                               limit=sim.now + limit_ns)
    except Exception as err:
        failures.append("replicated clients hung or died: %s: %s"
                        % (type(err).__name__, err))
    world.run(until=sim.now + QUIESCE_NS)
    # -- who died, and did the kernel really reclaim it ---------------------
    dead = [n for n in nodes if n.crashed]
    if not reports or not dead:
        failures.append("crash teardown never ran (no proc_crash fired?)")
    else:
        data["reclaim"] = reports[0].as_dict()
        for node in dead:
            _check_reclaimed(failures, node.libos)
    failures.extend(violations)
    # -- replica convergence: the chain agrees after the splice -------------
    survivors = [n for n in nodes if not n.crashed]
    for chain_id in range(n_chains):
        states = [(n.name, n.chains[chain_id].applied,
                   n.chains[chain_id].committed) for n in survivors
                  if chain_id in n.chains
                  and n.name in directory.chain_members(chain_id)]
        if len({applied for _, applied, _ in states}) > 1:
            failures.append("chain %d diverged after failover: %s"
                            % (chain_id, states))
        for node_name, applied, committed in states:
            if committed != applied:
                failures.append(
                    "chain %d on %s left %d applied entries uncommitted"
                    % (chain_id, node_name, applied - committed))
    # -- the failover must actually have been exercised ---------------------
    acked = sum(t.acked for t in trackers)
    splices = sum(world.tracer.get("%s.%s" % (n.name,
                                              names.REPL_CHAIN_SPLICES))
                  for n in nodes)
    failovers = world.tracer.get("cluster.%s" % names.REPL_FAILOVERS)
    if dead and not failovers:
        failures.append("a replica died but the directory never failed over")
    if dead and not splices:
        failures.append("a replica died but no survivor spliced the chain")
    if not acked:
        failures.append("no write was ever acknowledged - nothing was tested")
    for client in clients:
        _check_libos(failures, world, client.libos, drained=True)
    for node in survivors:
        _check_libos(failures, world, node.libos, drained=False)
    _check_dma(failures, world)
    rtt = LatencyStats("repl-rtt")
    for client in clients:
        rtt.extend(client.stats.samples)
    data.update(
        acked=acked, lost_acked=len(violations),
        rtt_p99_ns=int(rtt.p99) if rtt.samples else 0,
        failovers=failovers, splices=splices,
        log_replayed=sum(
            world.tracer.get("%s.%s" % (n.name, names.REPL_ENTRIES_REPLAYED))
            for n in nodes),
        client_retries=sum(
            world.tracer.get("cl%d.catmint.%s"
                             % (i, names.REPL_CLIENT_RETRIES))
            for i in range(n_clients)),
        finished_at=sim.now)
    return _finish(world, name, kind, plan, failures, data)


#: name -> which workload drives it and which libOS kinds it runs on
GOLDEN_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "handshake-loss": {
        "workload": "echo", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "total loss burst while the connection is being set up",
    },
    "reorder-dup-storm": {
        "workload": "kv", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "heavy reordering + duplication across the whole run",
    },
    "partition-heal": {
        "workload": "kv", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "a full partition mid-workload that heals",
    },
    "rx-ring-overflow": {
        "workload": "echo", "kinds": ("dpdk",),
        "blurb": "the server NIC's RX ring collapses to zero for a window",
    },
    "slow-nvme": {
        "workload": "storage", "kinds": ("spdk",),
        "blurb": "a 40x slow-flash window during appends",
    },
    "corruption-storm": {
        "workload": "echo", "kinds": ("dpdk", "posix"),
        "blurb": "random bit flips that only L4 checksums can catch",
    },
    "crash-mid-stream": {
        "workload": "crash-echo", "kinds": ("dpdk", "posix", "rdma"),
        "blurb": "the client process is killed mid-stream; the kernel"
                 " reclaims its resources and the peer sees a reset",
    },
    "crash-storage": {
        "workload": "crash-storage", "kinds": ("spdk",),
        "blurb": "the storage process dies with NVMe commands in flight",
    },
    "nvme-transient-outage": {
        "workload": "storage", "kinds": ("spdk",),
        "blurb": "a controller-failure window the retry ladder outlasts",
    },
    "nvme-fatal-outage": {
        "workload": "nvme-outage", "kinds": ("spdk",),
        "blurb": "a controller failure outlasting the ladder: typed"
                 " DeviceFailed surfaces from wait",
    },
    "link-flap": {
        "workload": "echo", "kinds": ("dpdk", "posix"),
        "blurb": "the client NIC loses carrier mid-stream; rings"
                 " re-initialize and ARP relearns on recovery",
    },
    "replica-crash-head": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "the chain head dies mid-stream; clients fail over to"
                 " the new head and no acknowledged write is lost",
    },
    "replica-crash-middle": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "a middle replica dies; the chain splices around it and"
                 " replays the log suffix to the tail",
    },
    "replica-crash-tail": {
        "workload": "kv-replicated", "kinds": ("rdma",),
        "blurb": "the tail (the commit point) dies; its predecessor"
                 " becomes the tail and reads stay linearizable",
    },
}


def golden_plan(name: str, kind: str = "dpdk") -> FaultPlan:
    """The pinned fault plan for one golden scenario on one libOS kind.

    Windows are sized to each transport's retry budget: the RDMA
    transport aborts the QP after ~8 retries at a ~10us RTO, so its
    blackouts stay under ~50us where TCP (RTO 100us..5ms, 6 SYN / 12
    data retries) tolerates milliseconds.
    """
    if name == "handshake-loss":
        if kind == "rdma":
            # The rdmacm rendezvous is off-fabric, so the burst targets
            # the first data exchange (~61us in) instead of the SYNs.
            return FaultPlan(seed=101).loss(55 * _US, 95 * _US, rate=1.0)
        return FaultPlan(seed=101).loss(0, 280 * _US, rate=1.0)
    if name == "reorder-dup-storm":
        jitter = 5 * _US if kind == "rdma" else 30 * _US
        return (FaultPlan(seed=202)
                .reorder(0, 3 * _MS, rate=0.4, jitter_ns=jitter)
                .duplicate(0, 3 * _MS, rate=0.3))
    if name == "partition-heal":
        start = 300 * _US
        end = start + (50 * _US if kind == "rdma" else 1 * _MS)
        return FaultPlan(seed=303).partition(None, None, start, end)
    if name == "rx-ring-overflow":
        return FaultPlan(seed=404).nic_ring_clamp("server.dpdk0",
                                                  200 * _US, 500 * _US,
                                                  limit=0)
    if name == "slow-nvme":
        return FaultPlan(seed=505).nvme_slow("nvme0", 0, 3 * _MS,
                                             factor=40.0)
    if name == "corruption-storm":
        return FaultPlan(seed=606).corrupt(0, 2 * _MS, rate=0.25)
    if name == "crash-mid-stream":
        # Pinned mid-stream: each kind's echo cadence differs, so the
        # kill lands while roughly half the messages are outstanding.
        at = {"dpdk": 400 * _US, "posix": 2 * _MS, "rdma": 300 * _US}[kind]
        return FaultPlan(seed=707).proc_crash("client", at)
    if name == "crash-storage":
        return FaultPlan(seed=808).proc_crash("h", 200 * _US)
    if name == "nvme-transient-outage":
        # Ends before the ladder exhausts: a retry (or the post-reset
        # attempt) lands after the window and the workload completes.
        return FaultPlan(seed=909).nvme_ctrl_fail("nvme0", 0, 350 * _US)
    if name == "nvme-fatal-outage":
        # Outlasts the whole ladder: typed DeviceFailed must surface.
        return FaultPlan(seed=1010).nvme_ctrl_fail("nvme0", 0,
                                                   DEFAULT_LIMIT_NS)
    if name == "link-flap":
        device = "client.dpdk0" if kind == "dpdk" else "client.eth0"
        at = 200 * _US if kind == "dpdk" else 1 * _MS
        return FaultPlan(seed=1111).nic_link_flap(device, at,
                                                  down_ns=250 * _US)
    if name.startswith("replica-crash-"):
        # Chain 0 over three nodes is exactly [replica0, replica1,
        # replica2], so the index picks the chain position by name.
        index = {"head": 0, "middle": 1, "tail": 2}[name.rsplit("-", 1)[1]]
        return (FaultPlan(seed=1201 + index)
                .proc_crash("replica%d" % index, 200 * _US))
    raise KeyError("unknown golden scenario %r" % (name,))


# Expose every golden plan to the experiment layer's plan-by-name
# lookup (repro.sim.faults.plan_by_name): an ExperimentSpec can say
# fault_plan="partition-heal" and get the same pinned windows the chaos
# battery runs, sized for its libOS kind.
for _name in GOLDEN_SCENARIOS:
    register_plan(_name, lambda kind, _n=_name: golden_plan(_n, kind),
                  replace=True)
del _name


def run_scenario(name: str, kind: str,
                 plan: Optional[FaultPlan] = None, **kw) -> ScenarioResult:
    """Run one golden scenario (or the same workload under a custom plan)."""
    if name not in GOLDEN_SCENARIOS:
        raise ValueError("unknown scenario %r (have: %s)"
                         % (name, ", ".join(sorted(GOLDEN_SCENARIOS))))
    spec = GOLDEN_SCENARIOS[name]
    if kind not in spec["kinds"]:
        raise ValueError("scenario %r does not run on %r (only %s)"
                         % (name, kind, ", ".join(spec["kinds"])))
    plan = plan if plan is not None else golden_plan(name, kind)
    workload = spec["workload"]
    if workload == "echo":
        return run_echo_scenario(kind, plan, name=name, **kw)
    if workload == "kv":
        return run_kv_scenario(kind, plan, name=name, **kw)
    if workload == "crash-echo":
        return run_crash_echo_scenario(kind, plan, name=name, **kw)
    if workload == "kv-replicated":
        return run_replica_crash_scenario(kind, plan, name=name, **kw)
    if workload == "crash-storage":
        return run_crash_storage_scenario(plan, name=name, **kw)
    if workload == "nvme-outage":
        return run_nvme_outage_scenario(plan, name=name, **kw)
    return run_storage_scenario(plan, name=name, **kw)


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
