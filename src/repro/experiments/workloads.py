"""The workload registry: every experiment names one of these.

A workload is one measurement: one or more
:func:`repro.testing.run_scenario` legs (the rows of
:data:`repro.testing.WORKLOADS` - this module builds no world, joins no
process, stops no server and checks no invariant) plus a pure function
from their :class:`~repro.testing.ScenarioResult` s to the metrics of a
trajectory row.  :data:`WORKLOADS` is one table; each entry gives

* ``row`` - the scenario row it runs, or a function of the spec naming
  it (``chaos`` runs the golden scenario its ``fault_plan`` names,
  ``proto-slo`` the sharded row at ``cores`` > 1);
* ``multicore`` - whether ``cores`` may exceed 1;
* ``schema`` - the ``spec.params`` it accepts, and ``blurb`` - what
  ``repro exp list`` says of it;
* ``check`` (optional) - its own test of a spec: ``None`` or a reason;
* ``run`` (optional, :func:`_row_data` by default) - ``spec ->
  {"metrics": {...}, "ok": bool, "failures": [...]}``; metrics must be
  JSON-serializable and deterministic for a given spec (same seed, same
  trajectory - the Runner's tests assert this byte-for-byte).

:func:`validate_spec` reads them: ``None`` if the spec is runnable, else
a reason string (:meth:`Matrix.expand` rejects or skips on it, and
``repro exp validate`` asks it before any run starts).  Every workload
takes a fault plan, and every failure the driver's one invariant checker
reports (qtoken identity, nothing in flight after a drained run, no
wake-up without work, no IOMMU fault, crash reclaim) is a failure of the
row.

The spec's ``libos`` is a scenario kind (``kernel``, ``mtcp``,
``posix``, ``dpdk``, ``rdma``, ``spdk``, ``vfs``): a workload runs on
exactly the kinds its scenario row lists.  ``cores`` means what the
workload says: server *shards* for ``kv-scaling`` and ``proto-slo``
(dpdk only - sharding rides RSS), concurrent closed-loop *client
sessions* for ``kv``.

A schema is the scenario row's ``params`` (names, defaults, types by
default) less what the workload sets itself, plus the params only the
experiment reads.  :func:`spec_params` lays ``spec.params`` over the
defaults at read time, never into the spec - a spec that omits a param
and one that spells its default out have different ``run_id`` s.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..apps.proto import CODECS
from ..testing.scenarios import WORKLOADS as SCENARIO_ROWS
from ..testing.scenarios import (GOLDEN_SCENARIOS, run_scenario,
                                 scenario_problem)
from .spec import ExperimentSpec

__all__ = ["WORKLOADS", "validate_spec", "run_spec", "schema_summary"]

#: schema "type" -> accepted Python types (bool is NOT an int here)
_SCHEMA_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "number": (float, int),
    "str": (str,),
    "bool": (bool,),
    "list": (list, tuple),
}


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


def _row(spec: ExperimentSpec) -> str:
    """The scenario row *spec*'s workload runs."""
    row = WORKLOADS[spec.workload]["row"]
    return row(spec) if callable(row) else row


def validate_spec(spec: ExperimentSpec) -> Optional[str]:
    """``None`` if *spec* can run, else why it cannot."""
    entry = WORKLOADS.get(spec.workload)
    if entry is None:
        return ("unknown workload %r (have: %s)"
                % (spec.workload, ", ".join(workload_names())))
    reason = (check_params(spec.params, entry["schema"])
              or entry.get("check", lambda spec: None)(spec)
              or scenario_problem(_row(spec), spec.libos))
    if reason is None and spec.cores != 1 and not entry["multicore"]:
        reason = "%r is a single-core bench (cores must be 1)" % spec.workload
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
    return WORKLOADS[spec.workload].get("run", _row_data)(spec)


def spec_params(spec: ExperimentSpec) -> Dict[str, Any]:
    """``spec.params`` laid over the workload schema's defaults."""
    params = {key: entry["default"]
              for key, entry in WORKLOADS[spec.workload]["schema"].items()
              if "default" in entry}
    params.update(spec.params)
    return params


#: the schema type of a default's Python type
_DEFAULT_TYPES = {bool: "bool", int: "int", float: "number", str: "str",
                  list: "list"}


def _row_schema(row: str, sets: Sequence[str] = (),
                **extra: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The schema of a workload over scenario *row*: each of the row's
    ``params`` but those the workload *sets* itself, typed by its
    default, plus the *extra* params only the experiment reads."""
    schema = {key: {"type": _DEFAULT_TYPES[type(default)],
                    "default": default}
              for key, default in SCENARIO_ROWS[row]["params"].items()
              if key not in sets}
    schema.update(extra)
    return schema


def _scenario(spec: ExperimentSpec, **params):
    """One leg of *spec*: its scenario row under the spec's plan."""
    return run_scenario(_row(spec), spec.libos, plan=spec.resolve_plan(),
                        **params)


def _outcome(metrics: Dict[str, Any], *results,
             failures: Sequence[str] = ()) -> Dict[str, Any]:
    """The ``run`` contract from *metrics*, the legs' failures and the
    workload's own *failures*."""
    failures = [f for result in results for f in result.failures] \
        + list(failures)
    return {"metrics": metrics, "ok": not failures, "failures": failures}


def _numeric_data(data: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in data.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def _columns(data: Dict[str, Any], columns: Dict[str, str]) -> Dict[str, Any]:
    """``{column: data[key]}``; a leg that did not finish reads as 0."""
    return {column: data.get(key, 0) for column, key in columns.items()}


#: what the driver, not the workload, records in ``ScenarioResult.data``
_DRIVER_DATA = ("finished_at",)


def _row_data(spec: ExperimentSpec) -> Dict[str, Any]:
    """The scenario row is the whole measurement: its ``data``, less the
    driver's keys, is the trajectory row (docs/api.md has
    ``kv-sharded``'s columns); ``cores`` > 1 shards the server."""
    cores = {"cores": spec.cores} if spec.cores > 1 else {}
    result = _scenario(spec, **cores, **spec_params(spec))
    return _outcome({key: value for key, value in result.data.items()
                     if key not in _DRIVER_DATA}, result)


def _kv_run(spec: ExperimentSpec) -> Dict[str, Any]:
    result = _scenario(spec, n_clients=spec.cores, **spec_params(spec))
    metrics = _numeric_data(result.data)
    # the trajectory's column; a run that hung served nothing it can count
    metrics["requests"] = metrics.pop("served", 0)
    return _outcome(metrics, result)


def _chaos_check(spec: ExperimentSpec) -> Optional[str]:
    if not (isinstance(spec.fault_plan, str)
            and spec.fault_plan in GOLDEN_SCENARIOS):
        return "'chaos' needs a golden scenario's name as its fault_plan"
    return None


def _chaos_run(spec: ExperimentSpec) -> Dict[str, Any]:
    """The golden scenario, then its replay: the two signatures match."""
    plan = spec.resolve_plan()
    result, replay = (run_scenario(spec.fault_plan, spec.libos, plan=plan)
                      for _ in range(2))
    metrics = _numeric_data(result.data)
    metrics["signature"] = result.signature
    metrics["replayed"] = 1
    failures = ([] if replay.signature == result.signature else
                ["non-deterministic: replay signature %s != %s"
                 % (replay.signature, result.signature)])
    return _outcome(metrics, result, failures=failures)


def _variants(switch: str, labels: Sequence[str],
              columns: Sequence[Dict[str, str]],
              checks: Sequence[tuple] = ()):
    """The run of a workload over the same trace without, then with, the
    device program (*switch*), so the host-CPU delta is exactly the
    offloaded work.  ``columns[i]`` maps each variant's data to metrics,
    a variant's failures carry ``labels[i]``, and a ``(metric,
    failure)`` of *checks* fails the row when its metric reads 0."""
    def run(spec: ExperimentSpec) -> Dict[str, Any]:
        metrics: Dict[str, Any] = {}
        failures: List[str] = []
        for on, label, column_map in zip((False, True), labels, columns):
            result = _scenario(spec, **{switch: on}, **spec_params(spec))
            metrics.update(_columns(result.data, column_map))
            failures += ["[%s] %s" % (label, f) for f in result.failures]
        failures += [failure for metric, failure in checks
                     if not metrics[metric]]
        return _outcome(metrics, failures=failures)
    return run


def _proto_slo_check(spec: ExperimentSpec) -> Optional[str]:
    protocol = spec_params(spec)["protocol"]
    if protocol not in CODECS:
        return ("unknown protocol %r (have: %s)"
                % (protocol, ", ".join(sorted(CODECS))))
    return None


def _proto_slo_run(spec: ExperimentSpec) -> Dict[str, Any]:
    """The whole sweep runs in one spec so budgets can gate the curve.

    ``base_rate_ops_per_s`` is nominal single-run capacity; each load
    fraction is one open-loop run at that share of it, and fractions
    above 1.0 are the overload points where goodput must plateau while
    p99.9 keeps climbing.  Per-row budgets key on flat metric names
    (``p999_at_70_ns``, ``goodput_at_130_ops_per_s``...), so every
    offered-load point lands in this one row rather than one spec per
    point - params cannot be matrix axes.
    """
    params = spec_params(spec)   # what is not popped is LoadConfig's
    fractions = params.pop("load_fractions")
    base_rate = params.pop("base_rate_ops_per_s")
    sharded = {"cores": spec.cores} if spec.cores > 1 else {}
    results = []
    failures: List[str] = []
    metrics: Dict[str, Any] = {
        "base_rate_ops_per_s": base_rate,
        "decode_errors": 0,
        "error_replies": 0,
        "reconnects": 0,
        "stalls": 0,
    }
    for fraction in fractions:
        result = _scenario(spec, rate_ops_per_s=base_rate * fraction,
                           **sharded, **params)
        results.append(result)
        row = result.data
        pct = int(round(fraction * 100))
        metrics.update(_columns(row, {
            "offered_at_%d_ops_per_s" % pct: "offered_ops_per_s",
            "goodput_at_%d_ops_per_s" % pct: "goodput_ops_per_s",
            "p50_at_%d_ns" % pct: "p50_ns",
            "p99_at_%d_ns" % pct: "p99_ns",
            "p999_at_%d_ns" % pct: "p999_ns",
            "completed_at_%d" % pct: "completed"}))
        decode_errors = (row.get("server_decode_errors", 0),
                         row.get("client_decode_errors", 0))
        metrics["decode_errors"] += sum(decode_errors)
        for total in ("error_replies", "reconnects", "stalls"):
            metrics[total] += row.get(total, 0)
        if not row.get("completed"):
            failures.append("load %d%%: nothing completed" % pct)
        if any(decode_errors):
            failures.append("load %d%%: %d server / %d client decode errors"
                            % ((pct,) + decode_errors))
    return _outcome(metrics, *results, failures=failures)


#: name -> workload; the module docstring says what each field means
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "kv": {
        "row": "kv-concurrent", "multicore": True, "run": _kv_run,
        "blurb": "cores concurrent closed-loop KV clients, any network libOS",
        "schema": _row_schema("kv-concurrent", sets=("n_clients",))},
    "chaos": {
        "row": lambda spec: spec.fault_plan, "multicore": False,
        "check": _chaos_check, "run": _chaos_run,
        "blurb": "the golden chaos scenario fault_plan names, then its"
                 " replay: the signatures must match",
        "schema": {}},
    "kv-scaling": {
        "row": "kv-sharded", "multicore": True,
        "blurb": "sharded KV throughput at cores shards (dpdk), wake-one"
                 " counters checked",
        "schema": _row_schema("kv-sharded")},
    "storage": {
        "row": "storage", "multicore": False,
        "blurb": "STOR's log writer on the SPDK libOS or the kernel VFS:"
                 " fsync batch latency, syscalls, copies, host CPU",
        "schema": _row_schema("storage")},
    # The claim-suite latency benches, on the legacy stacks (``kernel``
    # sockets, ``mtcp``) as on the libOSes.
    "echo-rtt": {
        "row": "echo-rtt", "multicore": False,
        "blurb": "echo round-trip + per-request syscall/copy/interrupt costs",
        "schema": _row_schema("echo-rtt")},
    "kv-rtt": {
        "row": "kv-rtt", "multicore": False,
        "blurb": "KV GET round-trip + server CPU per request",
        "schema": _row_schema("kv-rtt")},
    "kv-offload": {
        "row": "kv-udp", "multicore": False,
        "run": _variants("nic_program", ("host", "offload"), (
            {"host_cpu_per_op_host_ns": "host_cpu_per_op_ns",
             "rtt_p50_host_ns": "rtt_p50_ns",
             "served_on_host_baseline": "served_on_host"},
            {"host_cpu_per_op_offload_ns": "host_cpu_per_op_ns",
             "rtt_p50_offload_ns": "rtt_p50_ns",
             "served_on_host_offload": "served_on_host",
             "offload_kv_hits": "hits",
             "offload_kv_misses": "misses",
             "offload_kv_steered": "steered",
             "offload_kv_punts": "punts"})),
        "blurb": "host CPU/op for UDP KV GETs with vs without the"
                 " NIC-resident GET program",
        "schema": _row_schema("kv-udp", sets=("nic_program",))},
    "storelog-scan": {
        "row": "log-scan", "multicore": False,
        "run": _variants("on_device", ("host", "device"), (
            {"scan_cpu_per_record_host_ns": "scan_cpu_per_record_ns",
             "scan_cpu_host_ns": "scan_cpu_ns",
             "scan_wall_host_ns": "scan_wall_ns",
             "nvme_reads_host": "nvme_reads"},
            {"scan_cpu_per_record_device_ns": "scan_cpu_per_record_ns",
             "scan_cpu_device_ns": "scan_cpu_ns",
             "scan_wall_device_ns": "scan_wall_ns",
             "nvme_scans_device": "nvme_scans",
             "scan_matches": "scan_matches"}), checks=(
            ("scan_matches", "predicate matched nothing - bench is vacuous"),
            ("nvme_scans_device", "device variant issued no scan commands"))),
        "blurb": "log predicate scan on-device vs host read loop, host CPU"
                 " and PCIe traffic compared",
        "schema": _row_schema("log-scan", sets=("on_device",))},
    "proto-slo": {
        "row": lambda spec: ("open-loop-sharded" if spec.cores > 1
                             else "open-loop"),
        "multicore": True, "check": _proto_slo_check, "run": _proto_slo_run,
        "blurb": "open-loop Poisson/Zipf load sweep against a RESP or"
                 " memcached server; goodput + tail latency per"
                 " offered-load point",
        "schema": _row_schema(
            "open-loop", sets=("rate_ops_per_s",),
            base_rate_ops_per_s={"type": "number", "default": 240000},
            load_fractions={"type": "list", "default": [0.3, 0.7, 1.0, 1.3]})},
}
