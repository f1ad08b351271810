"""The workload registry: every experiment names one of these.

A workload is one measurement (a chaos scenario through the scenario
driver, the sharded scaling bench, the claim-suite RTT benches) behind
the uniform experiment contract:

* ``validate(spec)`` - ``None`` if the spec is runnable, else a reason
  string (used by :meth:`Matrix.expand` to reject or skip invalid
  combinations, and by ``repro exp validate`` before any run starts);
* ``run(spec)`` - execute it and return ``{"metrics": {...}, "ok":
  bool, "failures": [...]}``; metrics must be JSON-serializable and
  deterministic for a given spec (same seed, same trajectory - the
  Runner's tests assert this byte-for-byte).

The spec's ``cores`` axis means what the workload says it means:
server *shards* for ``kv-scaling`` (dpdk only - sharding rides RSS),
concurrent closed-loop *client sessions* for ``kv`` (any network
libOS).  ``params.counters`` (a list of leaf names) merges a
:func:`repro.telemetry.counter_rollup` slice of the run's counters
into the metrics for workloads that expose them.

Every ``run`` reads its parameters through :func:`spec_params`, which
lays ``spec.params`` over the schema's defaults at read time.  The
defaults are written once, in the schema, and never into the spec - a
spec that omits a param and one that spells its default out are
different specs with different ``run_id`` s, as they always were.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..apps.echo import (demi_echo_client, demi_echo_server,
                         mtcp_echo_client, mtcp_echo_server,
                         posix_echo_client, posix_echo_server)
from ..apps.kvstore import (OP_GET, OP_PUT, KvEngine, KvNicOffload,
                            UdpKvServer, demi_kv_client, posix_kv_client,
                            posix_kv_server)
from ..apps.proto import CODECS, KvEngineStore, LegacyKvCodec, ProtoServer
from ..bench.loadgen import LoadConfig, slo_sweep
from ..cluster import shard_workload, src_port_for_queue
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import counter_rollup
from ..testbed import (make_dpdk_libos_pair, make_kernel_pair,
                       make_mtcp_pair, make_posix_libos_pair,
                       make_rdma_libos_pair, make_sharded_kv_world,
                       make_spdk_libos)
from .spec import ExperimentSpec

__all__ = ["WORKLOADS", "register_workload", "workload_names",
           "validate_spec", "run_spec", "spec_params", "check_params",
           "schema_summary"]

#: name -> {"validate": spec -> Optional[str], "run": spec -> dict,
#:          "blurb": str, "schema": dict}
WORKLOADS: Dict[str, Dict[str, Any]] = {}

#: schema "type" -> accepted Python types (bool is NOT an int here)
_SCHEMA_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "float": (float, int),
    "number": (float, int),
    "str": (str,),
    "bool": (bool,),
    "list": (list, tuple),
}


def register_workload(name: str, *, schema: Dict[str, Dict[str, Any]],
                      validate: Optional[Callable] = None, blurb: str = ""):
    """Register the decorated function as workload *name*'s ``run``::

        @register_workload("my-bench", validate=_my_validate,
                           blurb="...", schema={
                               "n_ops": {"type": "int", "default": 40},
                           })
        def _my_run(spec): ...

    *schema* declares the accepted ``spec.params`` keys: ``{name:
    {"type": ..., "default": ...}}`` with type one of %s.
    :func:`validate_spec` rejects unknown params and type mismatches
    before the workload's own ``validate`` runs, :func:`spec_params`
    fills the defaults in for ``run``, and ``repro exp list`` prints the
    schema - no silently-ignored typos in spec files.
    """ % ", ".join(sorted(_SCHEMA_TYPES))
    for key, entry in schema.items():
        if entry.get("type") not in _SCHEMA_TYPES:
            raise ValueError(
                "schema for %r param %r: unknown type %r (have: %s)"
                % (name, key, entry.get("type"),
                   ", ".join(sorted(_SCHEMA_TYPES))))

    def _install(run_fn: Callable) -> Callable:
        if name in WORKLOADS:
            raise ValueError("workload %r already registered" % name)
        WORKLOADS[name] = {
            "validate": validate or (lambda spec: None),
            "run": run_fn,
            "blurb": blurb,
            "schema": schema,
        }
        return run_fn

    return _install


def workload_names() -> List[str]:
    return sorted(WORKLOADS)


def check_params(params: Dict[str, Any],
                 schema: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """``None`` if *params* fit *schema*, else the first violation."""
    for key in sorted(params):
        entry = schema.get(key)
        if entry is None:
            return ("unknown param %r (schema has: %s)"
                    % (key, ", ".join(sorted(schema)) or "no params"))
        kinds = _SCHEMA_TYPES[entry["type"]]
        value = params[key]
        if isinstance(value, bool) and bool not in kinds:
            return ("param %r must be %s, got bool" % (key, entry["type"]))
        if not isinstance(value, kinds):
            return ("param %r must be %s, got %s"
                    % (key, entry["type"], type(value).__name__))
    return None


def schema_summary(schema: Dict[str, Dict[str, Any]]) -> str:
    """One-line ``name:type=default`` rendering for ``repro exp list``."""
    if not schema:
        return "(no params)"
    parts = []
    for key in sorted(schema):
        entry = schema[key]
        part = "%s:%s" % (key, entry["type"])
        if "default" in entry:
            part += "=%r" % (entry["default"],)
        parts.append(part)
    return " ".join(parts)


def validate_spec(spec: ExperimentSpec) -> Optional[str]:
    """``None`` if *spec* can run, else why it cannot."""
    entry = WORKLOADS.get(spec.workload)
    if entry is None:
        return ("unknown workload %r (have: %s)"
                % (spec.workload, ", ".join(workload_names())))
    reason = (check_params(spec.params, entry["schema"])
              or entry["validate"](spec))
    if reason is not None:
        return reason
    # Plan resolution failures (unknown name, malformed inline dict)
    # should surface at validate time, not mid-run.
    try:
        spec.resolve_plan()
    except (KeyError, ValueError, TypeError) as exc:
        return "fault_plan does not resolve: %s" % exc
    return None


def run_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    """Execute one validated spec; returns ``{metrics, ok, failures}``."""
    reason = validate_spec(spec)
    if reason is not None:
        raise ValueError("invalid spec (%s): %s" % (spec.describe(), reason))
    return WORKLOADS[spec.workload]["run"](spec)


def spec_params(spec: ExperimentSpec) -> Dict[str, Any]:
    """``spec.params`` laid over the workload schema's defaults."""
    params = {key: entry["default"]
              for key, entry in WORKLOADS[spec.workload]["schema"].items()
              if "default" in entry}
    params.update(spec.params)
    return params


def _numeric_data(data: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in data.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def _merge_counters(metrics: Dict[str, Any], counters,
                    params: Dict[str, Any]) -> None:
    leaves = params.get("counters", ())
    if leaves:
        metrics.update(counter_rollup(counters, leaves=tuple(leaves)))


# -- kv: N concurrent closed-loop clients against one KV server ------------
def _kv_validate(spec: ExperimentSpec) -> Optional[str]:
    from ..testing.scenarios import NET_LIBOS_KINDS

    if spec.libos not in NET_LIBOS_KINDS:
        return ("libos %r cannot run 'kv' (have: %s)"
                % (spec.libos, ", ".join(NET_LIBOS_KINDS)))
    return None


@register_workload(
    "kv", validate=_kv_validate,
    blurb="cores concurrent closed-loop KV clients, any network libOS,"
          " fault-plan compatible",
    schema={
        "n_ops": {"type": "int", "default": 40},
        "n_keys": {"type": "int", "default": 16},
        "value_size": {"type": "int", "default": 256},
        "get_fraction": {"type": "number", "default": 0.7},
        "counters": {"type": "list"},
    })
def _kv_run(spec: ExperimentSpec) -> Dict[str, Any]:
    from ..testing.scenarios import run_scenario

    params = spec_params(spec)
    result = run_scenario("kv-concurrent", spec.libos,
                          plan=spec.resolve_plan(), n_clients=spec.cores,
                          **{k: v for k, v in params.items()
                             if k != "counters"})
    metrics = _numeric_data(result.data)
    metrics["requests"] = metrics.pop("served")  # the trajectory's column
    metrics["signature"] = result.signature
    _merge_counters(metrics, result.counters, params)
    return {"metrics": metrics, "ok": result.ok, "failures": result.failures}


# -- chaos: one golden scenario under its (seed-overridden) plan -----------
def _chaos_scenario(spec: ExperimentSpec) -> Optional[str]:
    from ..testing.scenarios import GOLDEN_SCENARIOS

    scenario = spec.params.get("scenario")
    if scenario is None and (isinstance(spec.fault_plan, str)
                             and spec.fault_plan in GOLDEN_SCENARIOS):
        scenario = spec.fault_plan
    return scenario


def _chaos_validate(spec: ExperimentSpec) -> Optional[str]:
    from ..testing.scenarios import scenario_problem

    scenario = _chaos_scenario(spec)
    if scenario is None:
        return ("'chaos' needs params.scenario or a golden-scenario "
                "fault_plan name")
    reason = scenario_problem(scenario, spec.libos)
    if reason is None and spec.cores != 1:
        reason = "'chaos' scenarios are single-core (cores must be 1)"
    return reason


@register_workload(
    "chaos", validate=_chaos_validate,
    blurb="one golden chaos scenario (params.scenario) incl. replay"
          " determinism check",
    schema={
        "scenario": {"type": "str"},
        "check_reproducible": {"type": "bool", "default": True},
        "counters": {"type": "list"},
    })
def _chaos_run(spec: ExperimentSpec) -> Dict[str, Any]:
    from ..testing.scenarios import (GOLDEN_SCENARIOS, plan_by_name,
                                     run_scenario)

    params = spec_params(spec)
    scenario = _chaos_scenario(spec)
    # fault_plan "none" on a golden scenario means "its golden plan at
    # this spec's seed" - a chaos scenario without its faults would not
    # exercise anything.
    if spec.fault_plan == "none" and scenario in GOLDEN_SCENARIOS:
        plan = plan_by_name(scenario, kind=spec.libos, seed=spec.seed)
    else:
        plan = spec.resolve_plan()
    result = run_scenario(scenario, spec.libos, plan=plan)
    failures = list(result.failures)
    metrics = _numeric_data(result.data)
    metrics["signature"] = result.signature
    if params["check_reproducible"]:
        second = run_scenario(scenario, spec.libos, plan=plan)
        metrics["replayed"] = 1
        if second.signature != result.signature:
            failures.append("non-deterministic: replay signature %s != %s"
                            % (second.signature, result.signature))
    _merge_counters(metrics, result.counters, params)
    return {"metrics": metrics, "ok": not failures, "failures": failures}


# -- kv-scaling: the sharded throughput sweep (one row per run) ------------
#: closed-loop samples dropped per client before latency statistics:
#: every client's first ops pay ARP resolution and the TCP connect
WARMUP = 3


def _kv_scaling_validate(spec: ExperimentSpec) -> Optional[str]:
    if spec.libos != "dpdk":
        return "'kv-scaling' shards ride RSS: dpdk only"
    if spec.fault_plan != "none":
        return "'kv-scaling' is a performance bench: fault_plan must be 'none'"
    return None


@register_workload(
    "kv-scaling", validate=_kv_scaling_validate,
    blurb="sharded KV throughput at cores shards (dpdk), wake-one"
          " counters checked",
    schema={
        "n_ops": {"type": "int", "default": 200},
        "n_keys": {"type": "int", "default": 32},
        "value_size": {"type": "int", "default": 256},
        "get_fraction": {"type": "number", "default": 0.9},
    })
def _kv_scaling_run(spec: ExperimentSpec) -> Dict[str, Any]:
    """Closed-loop sharded KV run: one steered client per shard.

    Every client pins its flow to its shard's RX queue and draws only
    that shard's keys, so the run also *measures* the wake-one claim:
    the row carries the wasted/cross wake-up totals (both must be zero)
    alongside throughput and per-core utilization.  Offered load scales
    with the shard count, so shared-nothing scaling shows as strictly
    increasing throughput across a ``cores`` axis - any flattening would
    mean cross-core serialization the architecture claims not to have.
    """
    params = spec_params(spec)
    n_shards = spec.cores
    w, server, clients = make_sharded_kv_world(
        n_shards, seed=spec.seed,
        server_kwargs={"codec_factory": LegacyKvCodec})
    server.start()
    rng = Rng(spec.seed).fork_named("kv-scaling")
    # Warmup is per *client*, so each one records into its own stats and
    # is trimmed individually - a global trim would leave n_shards-3
    # cold-start samples in the mean.
    per_client = [LatencyStats("kv-rtt-shard%d" % i)
                  for i in range(n_shards)]
    procs = []
    for i, client in enumerate(clients):
        ops = shard_workload(rng.fork(i), params["n_ops"], i, n_shards,
                             n_keys=params["n_keys"],
                             value_size=params["value_size"],
                             get_fraction=params["get_fraction"])
        procs.append(w.sim.spawn(
            demi_kv_client(client, server.ip, ops, port=server.port,
                           stats=per_client[i],
                           src_port=src_port_for_queue(
                               client.ip, server.ip, i, n_shards,
                               server.port)),
            name="bench.client%d" % i))
    for proc in procs:
        w.sim.run_until_complete(proc, limit=10**13)
    # The row is the run: read it before stop() wakes every dispatcher.
    row = server.metrics_row(w.sim.now, w.tracer)
    server.stop()
    stats = LatencyStats("kv-rtt-sharded")
    for client_stats in per_client:
        stats.extend(client_stats.samples[WARMUP:])
    row["rtt_mean_ns"] = stats.mean
    row["rtt_p99_ns"] = stats.p99
    failures: List[str] = []
    if row["wasted_wakeups"] != 0:
        failures.append("%d wasted wake-ups" % row["wasted_wakeups"])
    if row["cross_shard_wakeups"] != 0:
        failures.append("%d cross-shard wake-ups"
                        % row["cross_shard_wakeups"])
    if row["misrouted_requests"] != 0:
        failures.append("%d misrouted requests" % row["misrouted_requests"])
    if row["qtoken_identity_ok"] is not True:
        failures.append("qtoken identity violated")
    return {"metrics": row, "ok": not failures, "failures": failures}


# -- echo-rtt / kv-rtt: the claim-suite latency benches --------------------
#: flavor -> (world maker, server, client, server address): ``posix`` is
#: kernel sockets, ``mtcp`` a user stack behind POSIX semantics, the rest
#: the Demikernel libOSes
_ECHO_STACKS = {
    "posix": (make_kernel_pair, posix_echo_server, posix_echo_client,
              "10.0.0.2"),
    "mtcp": (make_mtcp_pair, mtcp_echo_server, mtcp_echo_client,
             "10.0.0.2"),
    "posix-libos": (make_posix_libos_pair, demi_echo_server,
                    demi_echo_client, "10.0.0.2"),
    "dpdk": (make_dpdk_libos_pair, demi_echo_server, demi_echo_client,
             "10.0.0.2"),
    "rdma": (make_rdma_libos_pair, demi_echo_server, demi_echo_client,
             "server-rdma"),
}
_KV_RTT_FLAVORS = ("posix", "dpdk")

#: the kernel and mTCP counters that are bytes copied across a boundary
_COPY_COUNTERS = tuple("%s.%s.bytes_copied_%s" % (side, layer, direction)
                       for layer in ("kernel", "mtcp")
                       for side in ("client", "server")
                       for direction in ("tx", "rx"))


def _rtt_validate(flavors, bench):
    def validate(spec: ExperimentSpec) -> Optional[str]:
        if spec.libos not in flavors:
            return ("%r runs on flavors %s, not %r"
                    % (bench, ", ".join(flavors), spec.libos))
        if spec.cores != 1:
            return "%r is a single-core RTT bench (cores must be 1)" % bench
        if spec.fault_plan != "none":
            return ("%r is a performance bench: fault_plan must be 'none'"
                    % bench)
        return None
    return validate


@register_workload(
    "echo-rtt", validate=_rtt_validate(tuple(_ECHO_STACKS), "echo-rtt"),
    blurb="echo round-trip + per-request syscall/copy/interrupt costs",
    schema={
        "message_size": {"type": "int", "default": 64},
        "count": {"type": "int", "default": 20},
    })
def _echo_rtt_run(spec: ExperimentSpec) -> Dict[str, Any]:
    params = spec_params(spec)
    count = params["count"]
    make_pair, echo_server, echo_client, addr = _ECHO_STACKS[spec.libos]
    w, client, server = make_pair(seed=spec.seed)
    w.sim.spawn(echo_server(server))
    messages = [b"e" * params["message_size"]] * (count + WARMUP)
    cp = w.sim.spawn(echo_client(client, addr, messages))
    w.sim.run_until_complete(cp, limit=10**13)
    stats = LatencyStats("echo-rtt")
    stats.extend(cp.value[1].samples[WARMUP:])
    counters = w.tracer
    per_req = max(1, count)
    metrics = {
        "message_size": params["message_size"],
        "rtt_mean_ns": stats.mean,
        "rtt_p50_ns": stats.p50,
        "rtt_p99_ns": stats.p99,
        "syscalls_per_req": (counters.get("client.kernel.syscalls")
                             + counters.get("server.kernel.syscalls")) / per_req,
        "copies_bytes_per_req": sum(counters.get(name)
                                    for name in _COPY_COUNTERS) / per_req,
        "interrupts_per_req": (
            counters.get("client.eth0.rx_interrupts")
            + counters.get("server.eth0.rx_interrupts")) / per_req,
    }
    ok = metrics["rtt_mean_ns"] > 0
    return {"metrics": metrics, "ok": ok,
            "failures": [] if ok else ["no RTT samples recorded"]}


@register_workload(
    "kv-rtt", validate=_rtt_validate(_KV_RTT_FLAVORS, "kv-rtt"),
    blurb="KV GET round-trip + server CPU per request",
    schema={
        "value_size": {"type": "int", "default": 1024},
        "n_gets": {"type": "int", "default": 20},
    })
def _kv_rtt_run(spec: ExperimentSpec) -> Dict[str, Any]:
    params = spec_params(spec)
    ops = ([(OP_PUT, b"bench-key", b"v" * params["value_size"])]
           + [(OP_GET, b"bench-key", None)] * (params["n_gets"] + WARMUP))
    if spec.libos == "posix":
        w, ka, kb = make_kernel_pair(seed=spec.seed)
        w.sim.spawn(posix_kv_server(kb, KvEngine(kb.host),
                                    max_requests=len(ops)))
        cp = w.sim.spawn(posix_kv_client(ka, "10.0.0.2", ops))
        w.sim.run_until_complete(cp, limit=10**13)
        server_cpu = kb.host.cpus[0].busy_ns
    else:
        w, client, server_libos = make_dpdk_libos_pair(seed=spec.seed)
        server = ProtoServer(server_libos, LegacyKvCodec,
                             KvEngineStore(KvEngine(server_libos.host)),
                             port=6379)
        w.sim.spawn(server.start())
        cp = w.sim.spawn(demi_kv_client(client, "10.0.0.2", ops))
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        server_cpu = server_libos.core.busy_ns
    get_stats = LatencyStats("get")
    get_stats.extend(cp.value[1].samples[1 + WARMUP:])  # skip the PUT + warmup
    metrics = {
        "value_size": params["value_size"],
        "get_rtt_mean_ns": get_stats.mean,
        "get_rtt_p99_ns": get_stats.p99,
        "server_cpu_per_req_ns": server_cpu / len(ops),
    }
    ok = metrics["get_rtt_mean_ns"] > 0
    return {"metrics": metrics, "ok": ok,
            "failures": [] if ok else ["no GET samples recorded"]}


# -- kv-offload: host CPU per op with vs without the NIC GET program -------
def _offload_bench_validate(bench, libos):
    def validate(spec: ExperimentSpec) -> Optional[str]:
        if spec.libos != libos:
            return "%r runs on the %r libOS only" % (bench, libos)
        if spec.cores != 1:
            return "%r is a single-server bench (cores must be 1)" % bench
        if spec.fault_plan != "none":
            return ("%r is a performance bench: fault_plan must be 'none'"
                    % bench)
        return None
    return validate


def _kv_offload_variant(spec: ExperimentSpec, with_program: bool):
    """One closed-loop UDP KV run; returns (row, failures).

    Same trace either way - PUT the keyspace, hammer GETs, one miss -
    the only difference is whether :class:`KvNicOffload` is installed on
    the server NIC, so the host-CPU delta is exactly the offloaded work.
    """
    params = spec_params(spec)
    n_keys = params["n_keys"]
    n_gets = params["n_gets"]
    w, client, server = make_dpdk_libos_pair(with_offload=True,
                                             seed=spec.seed)
    srv = UdpKvServer(server, port=6379)
    prog = None
    if with_program:
        prog = KvNicOffload(server.nic, srv.engine, server.ip, port=6379)
        prog.install()
    w.sim.spawn(srv.run(), name="kv-offload.server")
    value = b"v" * params["value_size"]
    ops = ([(OP_PUT, b"key-%04d" % i, value) for i in range(n_keys)]
           + [(OP_GET, b"key-%04d" % (i % n_keys), None)
              for i in range(n_gets)]
           + [(OP_GET, b"missing", None)])

    cproc = w.sim.spawn(
        demi_kv_client(client, server.ip, ops, proto="udp"),
        name="kv-offload.client")
    w.sim.run_until_complete(cproc, limit=10 ** 12)
    srv.stop()
    w.sim.run(until=w.sim.now + 5_000_000)

    label = "offload" if with_program else "host"
    results, stats = cproc.value
    gets = [r for r in results if r is not None]
    failures: List[str] = []
    got_ok = sum(1 for found, v in gets if found and v == value)
    got_missing = sum(1 for found, v in gets if not found)
    if got_ok != n_gets:
        failures.append("[%s] %d/%d GETs returned the value"
                        % (label, got_ok, n_gets))
    if got_missing != 1:
        failures.append("[%s] %d misses (expected 1)" % (label, got_missing))
    for side, libos in (("server", server), ("client", client)):
        qt = libos.qtokens
        if qt.in_flight != 0:
            failures.append("[%s] %d hung qtokens on the %s"
                            % (label, qt.in_flight, side))
        if qt.created != qt.completed + qt.cancelled + qt.in_flight:
            failures.append("[%s] qtoken identity violated on the %s"
                            % (label, side))
    row = {
        "host_cpu_ns": server.core.busy_ns,
        "host_cpu_per_op_ns": server.core.busy_ns // max(1, len(ops)),
        "served_on_host": srv.requests_served,
        "rtt_p50_ns": stats.percentile(50),
        "hits": prog.hits if prog else 0,
        "misses": prog.misses if prog else 0,
        "steered": prog.steered if prog else 0,
        "punts": prog.punts if prog else 0,
    }
    if with_program:
        if prog.hits != n_gets:
            failures.append("[offload] %d/%d GETs answered on the NIC"
                            % (prog.hits, n_gets))
        if srv.requests_served != n_keys:
            failures.append("[offload] host served %d requests, expected "
                            "only the %d PUTs"
                            % (srv.requests_served, n_keys))
    return row, failures


@register_workload(
    "kv-offload", validate=_offload_bench_validate("kv-offload", "dpdk"),
    blurb="host CPU/op for UDP KV GETs with vs without the NIC-resident"
          " GET program",
    schema={
        "n_keys": {"type": "int", "default": 20},
        "n_gets": {"type": "int", "default": 200},
        "value_size": {"type": "int", "default": 64},
    })
def _kv_offload_run(spec: ExperimentSpec) -> Dict[str, Any]:
    base, failures = _kv_offload_variant(spec, with_program=False)
    off, off_failures = _kv_offload_variant(spec, with_program=True)
    failures = failures + off_failures
    metrics = {
        "host_cpu_per_op_host_ns": base["host_cpu_per_op_ns"],
        "host_cpu_per_op_offload_ns": off["host_cpu_per_op_ns"],
        "rtt_p50_host_ns": base["rtt_p50_ns"],
        "rtt_p50_offload_ns": off["rtt_p50_ns"],
        "served_on_host_baseline": base["served_on_host"],
        "served_on_host_offload": off["served_on_host"],
        "offload_kv_hits": off["hits"],
        "offload_kv_misses": off["misses"],
        "offload_kv_steered": off["steered"],
        "offload_kv_punts": off["punts"],
    }
    return {"metrics": metrics, "ok": not failures, "failures": failures}


# -- storelog-scan: on-device predicate scan vs the host read loop ---------
def _storelog_scan_variant(spec: ExperimentSpec, on_device: bool):
    """Append+sync a log, then predicate-scan it; returns (row, matches)."""
    n_records = spec_params(spec)["n_records"]
    w, libos = make_spdk_libos(seed=spec.seed)
    records = [b"rec-%04d:%s" % (i, b"x" * (50 + i % 37))
               for i in range(n_records)]

    def predicate(payload):
        return payload[4:8].isdigit() and int(payload[4:8]) % 7 == 0

    out: Dict[str, int] = {}

    def body():
        qd = yield from libos.creat("/log")
        for record in records:
            yield from libos.blocking_push(qd, libos.sga_alloc(record))
        yield from libos.fsync(qd)
        scan_cpu_start = libos.core.busy_ns
        scan_start_ns = libos.sim.now
        if on_device:
            matches = yield from libos.store.scan(predicate)
        else:
            matches = yield from libos.store.scan_host(predicate)
        out["scan_cpu_ns"] = libos.core.busy_ns - scan_cpu_start
        out["scan_wall_ns"] = libos.sim.now - scan_start_ns
        return matches

    proc = w.sim.spawn(body(), name="storelog-scan")
    matches = w.sim.run_until_complete(proc, limit=10 ** 13)
    counters = counter_rollup(
        libos.host.tracer,
        leaves=("scans", "scan_bytes", "scan_matches", "reads"))
    row = {
        "scan_cpu_ns": out["scan_cpu_ns"],
        "scan_cpu_per_record_ns": out["scan_cpu_ns"] // max(1, n_records),
        "scan_wall_ns": out["scan_wall_ns"],
        "nvme_scans": counters.get("scans", 0),
        "nvme_reads": counters.get("reads", 0),
        "scan_matches": len(matches),
    }
    return row, matches


@register_workload(
    "storelog-scan",
    validate=_offload_bench_validate("storelog-scan", "spdk"),
    blurb="log predicate scan on-device vs host read loop, host CPU and"
          " PCIe traffic compared",
    schema={
        "n_records": {"type": "int", "default": 400},
    })
def _storelog_scan_run(spec: ExperimentSpec) -> Dict[str, Any]:
    host, host_matches = _storelog_scan_variant(spec, on_device=False)
    dev, dev_matches = _storelog_scan_variant(spec, on_device=True)
    failures: List[str] = []
    if host_matches != dev_matches:
        failures.append("device scan found %d matches, host loop %d - "
                        "results diverge"
                        % (len(dev_matches), len(host_matches)))
    if not dev_matches:
        failures.append("predicate matched nothing - bench is vacuous")
    if dev["nvme_scans"] < 1:
        failures.append("device variant issued no scan commands")
    metrics = {
        "scan_cpu_per_record_host_ns": host["scan_cpu_per_record_ns"],
        "scan_cpu_per_record_device_ns": dev["scan_cpu_per_record_ns"],
        "scan_cpu_host_ns": host["scan_cpu_ns"],
        "scan_cpu_device_ns": dev["scan_cpu_ns"],
        "scan_wall_host_ns": host["scan_wall_ns"],
        "scan_wall_device_ns": dev["scan_wall_ns"],
        "nvme_reads_host": host["nvme_reads"],
        "nvme_scans_device": dev["nvme_scans"],
        "scan_matches": dev["scan_matches"],
    }
    return {"metrics": metrics, "ok": not failures, "failures": failures}


# -- proto-slo: open-loop SLO sweep against the protocol servers -----------
def _proto_slo_validate(spec: ExperimentSpec) -> Optional[str]:
    if spec.libos not in ("dpdk", "posix"):
        return "'proto-slo' serves over dpdk or posix libOSes"
    if spec.cores > 1 and spec.libos != "dpdk":
        return "'proto-slo' sharded runs (cores > 1) are dpdk only"
    if spec.fault_plan != "none":
        return "'proto-slo' is a performance bench: fault_plan must be 'none'"
    protocol = spec_params(spec)["protocol"]
    if protocol not in CODECS:
        return ("unknown protocol %r (have: %s)"
                % (protocol, ", ".join(sorted(CODECS))))
    return None


@register_workload(
    "proto-slo", validate=_proto_slo_validate,
    blurb="open-loop Poisson/Zipf load sweep against a RESP or memcached"
          " server; goodput + tail latency per offered-load point",
    schema={
        "protocol": {"type": "str", "default": "resp"},
        "base_rate_ops_per_s": {"type": "number", "default": 240000},
        "load_fractions": {"type": "list", "default": [0.3, 0.7, 1.0, 1.3]},
        "duration_ms": {"type": "int", "default": 20},
        "n_connections": {"type": "int", "default": 4},
        "pipeline_max": {"type": "int", "default": 16},
        "n_keys": {"type": "int", "default": 64},
        "value_size": {"type": "int", "default": 128},
        "get_fraction": {"type": "number", "default": 0.9},
        "zipf_skew": {"type": "number", "default": 0.99},
        "churn_every": {"type": "int", "default": 0},
        "stall_conns": {"type": "int", "default": 0},
        "stall_ns": {"type": "int", "default": 2000000},
        "chunk_bytes": {"type": "int", "default": 0},
    })
def _proto_slo_run(spec: ExperimentSpec) -> Dict[str, Any]:
    """The whole sweep runs in one spec so budgets can gate the curve.

    Per-row budgets key on flat metric names (``p999_at_70_ns``,
    ``goodput_at_130_ops_per_s``...), so every offered-load point lands
    in this one row rather than one spec per point - params cannot be
    matrix axes.
    """
    params = spec_params(spec)
    fractions = params.pop("load_fractions")
    base_rate = params.pop("base_rate_ops_per_s")
    cfg = LoadConfig(**params)   # the rest of the schema is LoadConfig's
    rows = slo_sweep(cfg, fractions, base_rate, seed=spec.seed,
                     libos_kind=spec.libos, cores=spec.cores)
    failures: List[str] = []
    metrics: Dict[str, Any] = {
        "base_rate_ops_per_s": base_rate,
        "decode_errors": 0,
        "error_replies": 0,
        "reconnects": 0,
        "stalls": 0,
    }
    for fraction, row in zip(fractions, rows):
        pct = int(round(fraction * 100))
        metrics["offered_at_%d_ops_per_s" % pct] = row["offered_ops_per_s"]
        metrics["goodput_at_%d_ops_per_s" % pct] = row["goodput_ops_per_s"]
        metrics["p50_at_%d_ns" % pct] = row["p50_ns"]
        metrics["p99_at_%d_ns" % pct] = row["p99_ns"]
        metrics["p999_at_%d_ns" % pct] = row["p999_ns"]
        metrics["completed_at_%d" % pct] = row["completed"]
        metrics["decode_errors"] += (row["server_decode_errors"]
                                     + row["client_decode_errors"])
        metrics["error_replies"] += row["error_replies"]
        metrics["reconnects"] += row["reconnects"]
        metrics["stalls"] += row["stalls"]
        if row["completed"] == 0:
            failures.append("load %d%%: nothing completed" % pct)
        if row["server_decode_errors"] or row["client_decode_errors"]:
            failures.append("load %d%%: %d server / %d client decode errors"
                            % (pct, row["server_decode_errors"],
                               row["client_decode_errors"]))
        if row["qtoken_identity_ok"] is not True:
            failures.append("load %d%%: qtoken identity violated" % pct)
    return {"metrics": metrics, "ok": not failures, "failures": failures}
