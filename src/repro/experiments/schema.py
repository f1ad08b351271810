"""Schema + budget + monotonicity gates for persisted bench documents.

``BENCH_*.json`` files hold either one *document* or a *trajectory* - a
JSON list of documents, one appended per ``repro exp run``.  There is
one document kind, ``"bench": "experiment"``, produced by
:mod:`repro.experiments.runner`.  Its checker requires the structural
keys plus: every run finished ``ok`` with no invariant failures, no
duplicate ``run_id``, the document's declared ``params.budgets`` hold
for every row's metrics, each ``params.monotonic`` group is strictly
increasing, and every ``params.reductions`` rule holds (a *baseline*
metric must exceed a *metric* by at least ``min_factor`` - how offload
wins are gated).  What a sweep must satisfy is therefore data in its
spec file, not code here.

The checker returns a list of human-readable violations (empty =
valid); :func:`check_payload` applies it per document and prefixes
trajectory entries with ``doc[i]:``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "check_document",
    "check_payload",
    "summarize",
]

#: every experiment-trajectory row must carry these keys
EXPERIMENT_ROW_KEYS = (
    "run_id", "workload", "libos", "cores", "fault_plan", "seed",
    "status", "ok", "failures", "metrics",
)


# -- one document ---------------------------------------------------------
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


def check_document(doc: object) -> List[str]:
    """All violations in an ``experiment`` document (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("bench") != "experiment":
        return ["unknown bench %r (have: experiment)" % doc.get("bench")]
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


# -- trajectories ----------------------------------------------------------
def check_payload(payload: object) -> List[str]:
    """Validate one document or a trajectory (list of documents)."""
    if isinstance(payload, list):
        if not payload:
            return ["trajectory is empty"]
        errors: List[str] = []
        for i, doc in enumerate(payload):
            errors.extend("doc[%d]: %s" % (i, e) for e in check_document(doc))
        return errors
    return check_document(payload)


def summarize(payload: object, path: str) -> str:
    """One OK line for a validated payload (trajectory-aware)."""
    docs = payload if isinstance(payload, list) else [payload]
    last = docs[-1]
    rows = last.get("rows", [])
    label = ("%d documents, latest " % len(docs)
             if isinstance(payload, list) else "")
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
