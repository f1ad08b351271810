"""The workload registry: every experiment names one of these.

A workload is one measurement: one or more
:func:`repro.testing.run_scenario` legs (the rows of
:data:`repro.testing.WORKLOADS` - this module builds no world, joins no
process, stops no server and checks no invariant) plus a pure function
from their :class:`~repro.testing.ScenarioResult` s to the metrics of a
trajectory row, behind the uniform experiment contract:

* ``validate(spec)`` - ``None`` if the spec is runnable, else a reason
  string (used by :meth:`Matrix.expand` to reject or skip invalid
  combinations, and by ``repro exp validate`` before any run starts);
* ``run(spec)`` - execute it and return ``{"metrics": {...}, "ok":
  bool, "failures": [...]}``; metrics must be JSON-serializable and
  deterministic for a given spec (same seed, same trajectory - the
  Runner's tests assert this byte-for-byte).

Every workload takes a fault plan, and every failure the driver's one
invariant checker reports (qtoken identity, nothing in flight after a
drained run, no wake-up without work, no IOMMU fault, crash reclaim) is
a failure of the row.

The spec's ``libos`` is a scenario kind (``kernel``, ``mtcp``,
``posix``, ``dpdk``, ``rdma``, ``spdk``, ``vfs``): a workload runs on
exactly the kinds its scenario row lists.  ``cores`` means what the
workload says: server *shards* for ``kv-scaling`` and ``proto-slo``
(dpdk only - sharding rides RSS), concurrent closed-loop *client
sessions* for ``kv``.  ``params.counters`` (a list of leaf names) merges a
:func:`repro.telemetry.counter_rollup` slice of the run's counters into
the metrics for workloads that expose them.

A schema is the scenario row's ``params`` (names, defaults, types by
default) less what the workload sets itself, plus the params only the
experiment reads.  :func:`spec_params` lays ``spec.params`` over the
defaults at read time, never into the spec - a spec that omits a param
and one that spells its default out have different ``run_id`` s.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..apps.proto import CODECS
from ..telemetry import counter_rollup
from ..testing.scenarios import WORKLOADS as SCENARIO_ROWS
from ..testing.scenarios import (GOLDEN_SCENARIOS, plan_by_name,
                                 run_scenario, scenario_problem)
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


def _runs_on(row, multicore: bool = False):
    """The validator of a workload over scenario *row* (a name, or a
    function of the spec naming it): the spec's libOS is one of the
    row's kinds, and ``cores == 1`` unless the workload is *multicore*."""
    def validate(spec: ExperimentSpec) -> Optional[str]:
        reason = scenario_problem(row(spec) if callable(row) else row,
                                  spec.libos)
        if reason is None and spec.cores != 1 and not multicore:
            reason = ("%r is a single-core bench (cores must be 1)"
                      % spec.workload)
        return reason
    return validate


def _scenario(spec: ExperimentSpec, row: str, **params):
    """One leg of *spec*: scenario *row* under the spec's plan."""
    return run_scenario(row, spec.libos, plan=spec.resolve_plan(), **params)


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


def _merge_counters(metrics: Dict[str, Any], counters,
                    params: Dict[str, Any]) -> None:
    leaves = params.get("counters", ())
    if leaves:
        metrics.update(counter_rollup(counters, leaves=tuple(leaves)))


# -- kv: N concurrent closed-loop clients against one KV server ------------
@register_workload(
    "kv", validate=_runs_on("kv-concurrent", multicore=True),
    blurb="cores concurrent closed-loop KV clients, any network libOS",
    schema=_row_schema("kv-concurrent", sets=("n_clients",),
                       counters={"type": "list"}))
def _kv_run(spec: ExperimentSpec) -> Dict[str, Any]:
    params = spec_params(spec)
    result = _scenario(spec, "kv-concurrent", n_clients=spec.cores,
                       **{k: v for k, v in params.items()
                          if k != "counters"})
    metrics = _numeric_data(result.data)
    # the trajectory's column; a run that hung served nothing it can count
    metrics["requests"] = metrics.pop("served", 0)
    _merge_counters(metrics, result.counters, params)
    return _outcome(metrics, result)


# -- chaos: one golden scenario under its (seed-overridden) plan -----------
def _chaos_scenario(spec: ExperimentSpec) -> Optional[str]:
    scenario = spec.params.get("scenario")
    if scenario is None and (isinstance(spec.fault_plan, str)
                             and spec.fault_plan in GOLDEN_SCENARIOS):
        scenario = spec.fault_plan
    return scenario


def _chaos_validate(spec: ExperimentSpec) -> Optional[str]:
    if _chaos_scenario(spec) is None:
        return ("'chaos' needs params.scenario or a golden-scenario "
                "fault_plan name")
    return _runs_on(_chaos_scenario)(spec)


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
    failures = []
    metrics = _numeric_data(result.data)
    metrics["signature"] = result.signature
    if params["check_reproducible"]:
        second = run_scenario(scenario, spec.libos, plan=plan)
        metrics["replayed"] = 1
        if second.signature != result.signature:
            failures.append("non-deterministic: replay signature %s != %s"
                            % (second.signature, result.signature))
    _merge_counters(metrics, result.counters, params)
    return _outcome(metrics, result, failures=failures)


# -- kv-scaling / storage / echo-rtt / kv-rtt: the scenario row is the whole
# measurement; its ``data``, less the driver's keys, is the trajectory row --
#: what the driver, not the workload, records in ``ScenarioResult.data``
_DRIVER_DATA = ("finished_at",)


def _row_data(row: str):
    """The ``run`` of a workload over scenario *row*'s data (docs/api.md
    has ``kv-sharded``'s columns); ``cores`` > 1 shards the server."""
    def run(spec: ExperimentSpec) -> Dict[str, Any]:
        cores = {"cores": spec.cores} if spec.cores > 1 else {}
        result = _scenario(spec, row, **cores, **spec_params(spec))
        return _outcome({key: value for key, value in result.data.items()
                         if key not in _DRIVER_DATA}, result)
    return run


register_workload(
    "kv-scaling", validate=_runs_on("kv-sharded", multicore=True),
    blurb="sharded KV throughput at cores shards (dpdk), wake-one"
          " counters checked",
    schema=_row_schema("kv-sharded"))(_row_data("kv-sharded"))
register_workload(
    "storage", validate=_runs_on("storage"),
    blurb="STOR's log writer on the SPDK libOS or the kernel VFS: fsync"
          " batch latency, syscalls, copies, host CPU",
    schema=_row_schema("storage"))(_row_data("storage"))
# The claim-suite latency benches, on the legacy stacks (``kernel``
# sockets, ``mtcp``) as on the libOSes.
register_workload(
    "echo-rtt", validate=_runs_on("echo-rtt"),
    blurb="echo round-trip + per-request syscall/copy/interrupt costs",
    schema=_row_schema("echo-rtt"))(_row_data("echo-rtt"))
register_workload(
    "kv-rtt", validate=_runs_on("kv-rtt"),
    blurb="KV GET round-trip + server CPU per request",
    schema=_row_schema("kv-rtt"))(_row_data("kv-rtt"))


# -- kv-offload / storelog-scan: the same trace with and without the device
# program, so the host-CPU delta is exactly the offloaded work ------------
def _variants(spec: ExperimentSpec, row: str, switch: str, labels):
    """Run scenario *row* with *switch* off, then on; returns the two
    ``data`` dicts and the failures, each tagged with its variant."""
    datas, failures = [], []
    for on, label in zip((False, True), labels):
        result = _scenario(spec, row, **{switch: on}, **spec_params(spec))
        datas.append(result.data)
        failures.extend("[%s] %s" % (label, f) for f in result.failures)
    return datas[0], datas[1], failures


def _columns(data: Dict[str, Any], columns: Dict[str, str]) -> Dict[str, Any]:
    """``{column: data[key]}``; a leg that did not finish reads as 0."""
    return {column: data.get(key, 0) for column, key in columns.items()}


@register_workload(
    "kv-offload", validate=_runs_on("kv-udp"),
    blurb="host CPU/op for UDP KV GETs with vs without the NIC-resident"
          " GET program",
    schema=_row_schema("kv-udp", sets=("nic_program",)))
def _kv_offload_run(spec: ExperimentSpec) -> Dict[str, Any]:
    base, off, failures = _variants(spec, "kv-udp", "nic_program",
                                    ("host", "offload"))
    metrics = _columns(base, {
        "host_cpu_per_op_host_ns": "host_cpu_per_op_ns",
        "rtt_p50_host_ns": "rtt_p50_ns",
        "served_on_host_baseline": "served_on_host"})
    metrics.update(_columns(off, {
        "host_cpu_per_op_offload_ns": "host_cpu_per_op_ns",
        "rtt_p50_offload_ns": "rtt_p50_ns",
        "served_on_host_offload": "served_on_host",
        "offload_kv_hits": "hits",
        "offload_kv_misses": "misses",
        "offload_kv_steered": "steered",
        "offload_kv_punts": "punts"}))
    return _outcome(metrics, failures=failures)


@register_workload(
    "storelog-scan", validate=_runs_on("log-scan"),
    blurb="log predicate scan on-device vs host read loop, host CPU and"
          " PCIe traffic compared",
    schema=_row_schema("log-scan", sets=("on_device",)))
def _storelog_scan_run(spec: ExperimentSpec) -> Dict[str, Any]:
    host, dev, failures = _variants(spec, "log-scan", "on_device",
                                    ("host", "device"))
    metrics = _columns(host, {
        "scan_cpu_per_record_host_ns": "scan_cpu_per_record_ns",
        "scan_cpu_host_ns": "scan_cpu_ns",
        "scan_wall_host_ns": "scan_wall_ns",
        "nvme_reads_host": "nvme_reads"})
    metrics.update(_columns(dev, {
        "scan_cpu_per_record_device_ns": "scan_cpu_per_record_ns",
        "scan_cpu_device_ns": "scan_cpu_ns",
        "scan_wall_device_ns": "scan_wall_ns",
        "nvme_scans_device": "nvme_scans",
        "scan_matches": "scan_matches"}))
    if not metrics["scan_matches"]:
        failures.append("predicate matched nothing - bench is vacuous")
    if metrics["nvme_scans_device"] < 1:
        failures.append("device variant issued no scan commands")
    return _outcome(metrics, failures=failures)


# -- proto-slo: open-loop SLO sweep against the protocol servers -----------
def _open_loop_row(spec: ExperimentSpec) -> str:
    return "open-loop-sharded" if spec.cores > 1 else "open-loop"


def _proto_slo_validate(spec: ExperimentSpec) -> Optional[str]:
    protocol = spec_params(spec)["protocol"]
    if protocol not in CODECS:
        return ("unknown protocol %r (have: %s)"
                % (protocol, ", ".join(sorted(CODECS))))
    return _runs_on(_open_loop_row, multicore=True)(spec)


@register_workload(
    "proto-slo", validate=_proto_slo_validate,
    blurb="open-loop Poisson/Zipf load sweep against a RESP or memcached"
          " server; goodput + tail latency per offered-load point",
    schema=_row_schema(
        "open-loop", sets=("rate_ops_per_s",),
        base_rate_ops_per_s={"type": "number", "default": 240000},
        load_fractions={"type": "list", "default": [0.3, 0.7, 1.0, 1.3]}))
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
        result = _scenario(spec, _open_loop_row(spec),
                           rate_ops_per_s=base_rate * fraction, **sharded,
                           **params)
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
