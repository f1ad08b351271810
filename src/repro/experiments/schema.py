"""Schema + budget + monotonicity gates for persisted bench documents.

``BENCH_*.json`` files hold either one *document* or a *trajectory* - a
JSON list of documents accumulated with ``--append``.  Every document
names its schema via ``"bench"`` and is validated by the registered
checker for that name:

* ``kv_scaling`` - the sharded scaling sweep.  Structural keys plus
  the pinned claims:
  strictly increasing throughput, zero wasted/cross wake-ups, qtoken
  identity, and the per-op CPU budget with amortized setup allowance.
* ``experiment`` - a trajectory produced by :mod:`repro.experiments.
  runner`.  Structural keys plus: every run finished ``ok`` with no
  invariant failures, no duplicate ``run_id``, the document's declared
  ``params.budgets`` hold for every row's metrics, each
  ``params.monotonic`` group is strictly increasing, and every
  ``params.reductions`` rule holds (a *baseline* metric must exceed a
  *metric* by at least ``min_factor`` - how offload wins are gated).

Checkers return a list of human-readable violations (empty = valid);
:func:`check_payload` applies the right checker per document and
prefixes trajectory entries with ``doc[i]:``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "KV_SCALING_ROW_KEYS",
    "KV_SCALING_V2_ROW_KEYS",
    "EXPERIMENT_ROW_KEYS",
    "check_kv_scaling_document",
    "check_experiment_document",
    "check_document",
    "check_payload",
    "summarize",
    "validate_file",
    "register_schema",
]

#: every kv_scaling row must carry these keys (docs/api.md, schema v1)
KV_SCALING_ROW_KEYS = (
    "cores", "requests", "elapsed_ns", "throughput_ops_per_s",
    "rtt_mean_ns", "rtt_p99_ns", "per_shard_requests",
    "per_core_utilization", "wakeups", "wasted_wakeups",
    "cross_shard_wakeups", "misrouted_requests", "wait_timeouts",
    "qtoken_identity_ok",
)

#: kv_scaling schema_version 2 adds the batched fast path's cost columns
KV_SCALING_V2_ROW_KEYS = (
    "per_op_server_cpu_ns", "doorbells", "doorbells_saved",
    "requests_per_wakeup",
)

#: every experiment-trajectory row must carry these keys
EXPERIMENT_ROW_KEYS = (
    "run_id", "workload", "libos", "cores", "fault_plan", "seed",
    "status", "ok", "failures", "metrics",
)


# -- kv_scaling ------------------------------------------------------------
def check_kv_scaling_document(doc: object) -> List[str]:
    """All violations in a ``kv_scaling`` document (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("bench") != "kv_scaling":
        errors.append("bench is %r, expected 'kv_scaling'" % doc.get("bench"))
    version = doc.get("schema_version")
    if version not in (1, 2):
        errors.append("schema_version is %r, expected 1 or 2" % version)
        return errors
    required = (KV_SCALING_ROW_KEYS + KV_SCALING_V2_ROW_KEYS
                if version == 2 else KV_SCALING_ROW_KEYS)
    budget = None
    setup_allowance = 0
    if version == 2:
        params = doc.get("params")
        if not isinstance(params, dict) or "per_op_budget_ns" not in params:
            errors.append("schema v2 params missing per_op_budget_ns")
        else:
            budget = params["per_op_budget_ns"]
            if not isinstance(budget, (int, float)) or budget <= 0:
                errors.append("per_op_budget_ns is %r, expected a positive "
                              "number" % (budget,))
                budget = None
            allowance = params.get("per_op_setup_allowance_ns", 0)
            if not isinstance(allowance, (int, float)) or allowance < 0:
                errors.append("per_op_setup_allowance_ns is %r, expected a "
                              "non-negative number" % (allowance,))
            else:
                setup_allowance = allowance
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("rows missing or empty")
        return errors
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append("rows[%d] is not an object" % i)
            continue
        missing = [k for k in required if k not in row]
        if missing:
            errors.append("rows[%d] missing keys: %s"
                          % (i, ", ".join(missing)))
            continue
        if row["wasted_wakeups"] != 0:
            errors.append("rows[%d] (cores=%s): %d wasted wake-ups"
                          % (i, row["cores"], row["wasted_wakeups"]))
        if row["cross_shard_wakeups"] != 0:
            errors.append("rows[%d] (cores=%s): %d cross-shard wake-ups"
                          % (i, row["cores"], row["cross_shard_wakeups"]))
        if row["misrouted_requests"] != 0:
            errors.append("rows[%d] (cores=%s): %d misrouted requests"
                          % (i, row["cores"], row["misrouted_requests"]))
        if row["qtoken_identity_ok"] is not True:
            errors.append("rows[%d] (cores=%s): qtoken identity violated"
                          % (i, row["cores"]))
        if budget is not None:
            # Each shard pays a fixed connection-setup cost; short runs
            # cannot amortize it, so the gate is on marginal per-op work.
            limit = budget + (setup_allowance * row["cores"]
                              / max(1, row["requests"]))
            if row["per_op_server_cpu_ns"] > limit:
                errors.append(
                    "rows[%d] (cores=%s): per-op server CPU %.0f ns "
                    "exceeds the %.0f ns budget (%.0f ns + amortized "
                    "setup allowance)"
                    % (i, row["cores"], row["per_op_server_cpu_ns"],
                       limit, budget))
    good = [r for r in rows if isinstance(r, dict)
            and all(k in r for k in required)]
    for prev, cur in zip(good, good[1:]):
        if cur["cores"] <= prev["cores"]:
            errors.append("rows not ordered by cores (%s after %s)"
                          % (cur["cores"], prev["cores"]))
        if cur["throughput_ops_per_s"] <= prev["throughput_ops_per_s"]:
            errors.append(
                "throughput not strictly increasing: %.0f ops/s at "
                "%s cores vs %.0f ops/s at %s cores"
                % (cur["throughput_ops_per_s"], cur["cores"],
                   prev["throughput_ops_per_s"], prev["cores"]))
    return errors


# -- experiment trajectories -----------------------------------------------
def _budget_limits(spec: object) -> Optional[Tuple[Optional[float],
                                                   Optional[float]]]:
    """Normalize a budget entry to ``(min, max)``; None = malformed."""
    if isinstance(spec, bool):
        return None
    if isinstance(spec, (int, float)):
        return (None, float(spec))
    if isinstance(spec, dict) and spec and set(spec) <= {"min", "max"}:
        lo, hi = spec.get("min"), spec.get("max")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (lo, hi) if v is not None):
            return (None if lo is None else float(lo),
                    None if hi is None else float(hi))
    return None


def _metric_value(row: Mapping[str, Any], name: str):
    metrics = row.get("metrics")
    if isinstance(metrics, Mapping) and name in metrics:
        return metrics[name]
    return row.get(name)


def check_experiment_document(doc: object) -> List[str]:
    """All violations in an ``experiment`` document (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("bench") != "experiment":
        errors.append("bench is %r, expected 'experiment'" % doc.get("bench"))
    if doc.get("schema_version") != 1:
        errors.append("schema_version is %r, expected 1"
                      % doc.get("schema_version"))
        return errors
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        errors.append("name missing or empty")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        errors.append("params is not an object")
        params = {}
    budgets = params.get("budgets", {})
    if not isinstance(budgets, dict):
        errors.append("params.budgets is not an object")
        budgets = {}
    monotonic = params.get("monotonic", [])
    if not isinstance(monotonic, list):
        errors.append("params.monotonic is not a list")
        monotonic = []
    reductions = params.get("reductions", [])
    if not isinstance(reductions, list):
        errors.append("params.reductions is not a list")
        reductions = []
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("rows missing or empty")
        return errors
    seen_ids: Dict[str, int] = {}
    good: List[dict] = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append("rows[%d] is not an object" % i)
            continue
        missing = [k for k in EXPERIMENT_ROW_KEYS if k not in row]
        if missing:
            errors.append("rows[%d] missing keys: %s"
                          % (i, ", ".join(missing)))
            continue
        good.append(row)
        run_id = row["run_id"]
        if run_id in seen_ids:
            errors.append("rows[%d]: duplicate run_id %s (also rows[%d])"
                          % (i, run_id, seen_ids[run_id]))
        else:
            seen_ids[run_id] = i
        failures = row["failures"]
        if not isinstance(failures, list):
            errors.append("rows[%d] (run %s): failures is not a list"
                          % (i, run_id))
            failures = []
        if row["status"] != "ok":
            errors.append("rows[%d] (run %s): status is %r%s"
                          % (i, run_id, row["status"],
                             ": " + "; ".join(str(f) for f in failures)
                             if failures else ""))
            continue
        if row["ok"] is not True or failures:
            errors.append("rows[%d] (run %s): %d invariant violation(s): %s"
                          % (i, run_id, max(1, len(failures)),
                             "; ".join(str(f) for f in failures)
                             or "ok is not true"))
        if not isinstance(row["metrics"], dict):
            errors.append("rows[%d] (run %s): metrics is not an object"
                          % (i, run_id))
            continue
        for metric in sorted(budgets):
            limits = _budget_limits(budgets[metric])
            if limits is None:
                errors.append("budgets[%r] is %r, expected a number or "
                              "{'min'/'max': number}"
                              % (metric, budgets[metric]))
                continue
            lo, hi = limits
            value = _metric_value(row, metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append("rows[%d] (run %s): budget metric %r missing "
                              "or non-numeric (%r)"
                              % (i, run_id, metric, value))
                continue
            if hi is not None and value > hi:
                errors.append("rows[%d] (run %s): %s = %.6g exceeds the "
                              "%.6g budget" % (i, run_id, metric, value, hi))
            if lo is not None and value < lo:
                errors.append("rows[%d] (run %s): %s = %.6g below the "
                              "%.6g floor" % (i, run_id, metric, value, lo))
    for j, rule in enumerate(monotonic):
        errors.extend(_check_monotonic(good, rule, j))
    for j, rule in enumerate(reductions):
        errors.extend(_check_reduction(good, rule, j))
    return errors


def _check_reduction(rows: List[dict], rule: object, index: int) -> List[str]:
    """One ``params.reductions`` rule: a baseline dominates a metric.

    ``{"metric": "host_cpu_per_op_offload_ns", "baseline":
    "host_cpu_per_op_host_ns", "min_factor": 1.5, "workload"?:
    "kv-offload"}`` - in every row (optionally restricted to one
    workload) ``baseline >= metric * min_factor`` must hold.  This is
    how an offload bench gates "the optimized path really is at least
    ``min_factor``x cheaper": a regression that erodes the win below
    the factor fails validation, even if both numbers individually
    stay within budget.
    """
    if (not isinstance(rule, dict) or "metric" not in rule
            or "baseline" not in rule):
        return ["reductions[%d] is %r, expected {'metric', 'baseline', "
                "'min_factor'?, 'workload'?}" % (index, rule)]
    factor = rule.get("min_factor", 1.0)
    if (not isinstance(factor, (int, float)) or isinstance(factor, bool)
            or factor <= 0):
        return ["reductions[%d]: min_factor is %r, expected a positive "
                "number" % (index, factor)]
    metric, baseline = rule["metric"], rule["baseline"]
    workload = rule.get("workload")
    errors: List[str] = []
    applied = 0
    for row in rows:
        if workload is not None and row.get("workload") != workload:
            continue
        applied += 1
        value = _metric_value(row, metric)
        base = _metric_value(row, baseline)
        bad = [n for n, v in ((metric, value), (baseline, base))
               if not isinstance(v, (int, float)) or isinstance(v, bool)]
        if bad:
            errors.append("reductions[%d]: run %s missing or non-numeric "
                          "metric(s): %s"
                          % (index, row.get("run_id"), ", ".join(bad)))
            continue
        if base < value * factor:
            errors.append(
                "reductions[%d]: run %s: %s = %.6g is not %.3gx below "
                "%s = %.6g (ratio %.3g)"
                % (index, row.get("run_id"), metric, value, factor,
                   baseline, base, base / value if value else float("inf")))
    if not applied:
        errors.append("reductions[%d]: no rows matched (workload=%r) - "
                      "the gate checked nothing" % (index, workload))
    return errors


def _check_monotonic(rows: List[dict], rule: object, index: int) -> List[str]:
    """One ``params.monotonic`` rule: metric strictly increases with *by*.

    ``{"metric": "throughput_ops_per_s", "by": "cores",
    "group_by": ["workload", "libos"]}`` - within each group (rows
    sharing the ``group_by`` values, in document order) the metric must
    strictly increase as ``by`` strictly increases.
    """
    if (not isinstance(rule, dict) or "metric" not in rule
            or "by" not in rule):
        return ["monotonic[%d] is %r, expected {'metric', 'by', "
                "'group_by'?}" % (index, rule)]
    metric, by = rule["metric"], rule["by"]
    group_by = rule.get("group_by", [])
    errors: List[str] = []
    groups: Dict[Tuple, List[dict]] = {}
    for row in rows:
        key = tuple(json.dumps(_metric_value(row, g), sort_keys=True)
                    for g in group_by)
        groups.setdefault(key, []).append(row)
    for key, group in groups.items():
        label = ("" if not group_by else
                 " [%s]" % ", ".join("%s=%s" % (g, k)
                                     for g, k in zip(group_by, key)))
        for prev, cur in zip(group, group[1:]):
            pb, cb = _metric_value(prev, by), _metric_value(cur, by)
            pv, cv = _metric_value(prev, metric), _metric_value(cur, metric)
            if None in (pb, cb, pv, cv):
                errors.append("monotonic[%d]%s: rows missing %r or %r"
                              % (index, label, by, metric))
                break
            if cb <= pb:
                errors.append("monotonic[%d]%s: rows not ordered by %s "
                              "(%s after %s)" % (index, label, by, cb, pb))
            if cv <= pv:
                errors.append("monotonic[%d]%s: %s not strictly increasing "
                              "with %s (%.6g at %s=%s vs %.6g at %s=%s)"
                              % (index, label, metric, by,
                                 cv, by, cb, pv, by, pb))
    return errors


# -- dispatch --------------------------------------------------------------
_SCHEMAS: Dict[str, Callable[[object], List[str]]] = {
    "kv_scaling": check_kv_scaling_document,
    "experiment": check_experiment_document,
}


def register_schema(bench: str,
                    checker: Callable[[object], List[str]]) -> None:
    """Register a checker for a new ``"bench"`` document kind."""
    _SCHEMAS[bench] = checker


def check_document(doc: object) -> List[str]:
    """Validate one document with the checker its ``bench`` field names."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    bench = doc.get("bench")
    checker = _SCHEMAS.get(bench)
    if checker is None:
        return ["unknown bench %r (have: %s)"
                % (bench, ", ".join(sorted(_SCHEMAS)))]
    return checker(doc)


def check_payload(payload: object,
                  check: Callable[[object], List[str]] = check_document
                  ) -> List[str]:
    """Validate one document or a trajectory (list of documents)."""
    if isinstance(payload, list):
        if not payload:
            return ["trajectory is empty"]
        errors: List[str] = []
        for i, doc in enumerate(payload):
            errors.extend("doc[%d]: %s" % (i, e) for e in check(doc))
        return errors
    return check(payload)


def summarize(payload: object, path: str) -> str:
    """One OK line for a validated payload (trajectory-aware)."""
    docs = payload if isinstance(payload, list) else [payload]
    last = docs[-1]
    rows = last.get("rows", [])
    label = ("%d documents, latest " % len(docs)
             if isinstance(payload, list) else "")
    if last.get("bench") == "kv_scaling":
        return ("%s ok (%s%d rows, cores %s, peak %.0f ops/s)"
                % (path, label, len(rows),
                   "/".join(str(r["cores"]) for r in rows),
                   rows[-1]["throughput_ops_per_s"]))
    ok = sum(1 for r in rows if isinstance(r, dict) and r.get("ok") is True)
    return ("%s ok (%s%d rows, %d/%d runs ok, bench=%s)"
            % (path, label, len(rows), ok, len(rows), last.get("bench")))


def validate_file(path: str) -> Tuple[List[str], str]:
    """Load + validate one ``BENCH_*.json``; returns (errors, summary).

    On I/O or JSON failure the error list carries one entry and the
    summary is empty.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return (["cannot read %s: %s" % (path, exc)], "")
    errors = check_payload(payload)
    return (errors, "" if errors else summarize(payload, path))
