"""Exporters, all functions of a :class:`repro.sim.trace.Tracer`: Chrome
``trace_event`` JSON and plain dicts.

The Chrome format is the lingua franca of trace viewers - write the file
with ``python -m repro trace ...`` and load it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Each span track maps
to a *process* row (host / stack / device name) and each category
("app", "libos", "netstack", "device") to a named *thread* lane within
it, so the per-stack attribution reads straight off the timeline.  The
fault timeline (``tracer.events``) rides along as instant events on a
``faults`` track, so a trace shows which fault a stalled span sat under.

Timestamps: sim time is integer nanoseconds; ``trace_event`` wants
microseconds, so ``ts``/``dur`` are floats with ns precision preserved
(0.001 us granularity).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .names import SPAN_CATEGORIES

__all__ = ["chrome_trace_events", "write_chrome_trace", "snapshot",
           "breakdown_from_events", "counter_rollup"]

#: the track the fault timeline is drawn on
FAULTS_TRACK = "faults"


def _tid_for(cat: str) -> int:
    """Lane inside a track: ``SPAN_CATEGORIES`` order, strangers last."""
    try:
        return SPAN_CATEGORIES.index(cat) + 1
    except ValueError:
        return len(SPAN_CATEGORIES) + 1


def chrome_trace_events(tracer) -> List[dict]:
    """Render a tracer's spans and fault timeline as a Chrome
    ``trace_event`` list: complete (``X``) events in the order the spans
    ended, then one instant (``i``) event per timeline entry."""
    events: List[dict] = []
    pids: Dict[str, int] = {}
    named_threads = set()

    def pid_for(track: str) -> int:
        pid = pids.get(track)
        if pid is None:
            pid = pids[track] = len(pids) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": track}})
        return pid

    for span in tracer.spans:
        pid = pid_for(span.track or "sim")
        tid = _tid_for(span.cat)
        if (pid, tid) not in named_threads:
            named_threads.add((pid, tid))
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": span.cat or "spans"}})
        args = dict(span.args)
        args["span_id"] = span.id
        events.append({
            "name": span.name,
            "cat": span.cat or "span",
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for now, event, detail in tracer.events:
        events.append({
            "name": event,
            "cat": "fault",
            "ph": "i",
            "s": "p",
            "ts": now / 1000.0,
            "pid": pid_for(FAULTS_TRACK),
            "tid": 0,
            "args": {"detail": detail},
        })
    return events


def write_chrome_trace(tracer, path: str) -> int:
    """Write the Chrome trace JSON file; returns the event count."""
    events = chrome_trace_events(tracer)
    doc = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)


def snapshot(tracer) -> dict:
    """Plain-dict export of what tracing recorded: gauge and distribution
    summaries + per-category and per-name span rollups (the counters have
    their own, :meth:`Tracer.snapshot`)."""
    by_category: Dict[str, dict] = {}
    by_name: Dict[str, dict] = {}
    for span in tracer.spans:
        for key, table in ((span.cat, by_category), (span.name, by_name)):
            row = table.setdefault(key, {"count": 0, "total_ns": 0,
                                         "max_ns": 0})
            row["count"] += 1
            row["total_ns"] += span.duration_ns
            if span.duration_ns > row["max_ns"]:
                row["max_ns"] = span.duration_ns
    return {
        "span_count": len(tracer.spans),
        "spans_by_category": by_category,
        "spans_by_name": by_name,
        "metrics": {name: metric.summary()
                    for name, metric in sorted(tracer.metrics.items())},
    }


def counter_rollup(tracer, leaves=()) -> Dict[str, int]:
    """Sum a tracer's counters by leaf name across scopes.

    The experiment layer persists a compact, deterministic slice of a
    run's counters into its trajectory rows: ``leaves`` selects which
    leaf names to keep (e.g. ``("retransmissions", "syscalls")``).
    Empty *leaves* keeps every leaf.  Counters like
    ``client.shard0.retransmissions`` and ``server.retransmissions``
    both roll up under the ``retransmissions`` key.  Accepts a
    :class:`~repro.sim.trace.Tracer` or a plain ``{name: value}``
    mapping (e.g. ``ScenarioResult.counters``).
    """
    counters = getattr(tracer, "counters", tracer)
    out: Dict[str, int] = {}
    for name, value in counters.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaves and leaf not in leaves:
            continue
        out[leaf] = out.get(leaf, 0) + value
    return out


def breakdown_from_events(events) -> Dict[str, dict]:
    """Aggregate a Chrome event list into a per-category breakdown.

    Accepts either the raw ``traceEvents`` list or the whole document
    dict; returns ``{category: {"spans", "total_us", "mean_us",
    "names": {span name: total_us}}}`` - the table ``python -m repro
    report`` prints.
    """
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    out: Dict[str, dict] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        cat = event.get("cat", "span")
        row = out.setdefault(cat, {"spans": 0, "total_us": 0.0, "names": {}})
        dur = float(event.get("dur", 0.0))
        row["spans"] += 1
        row["total_us"] += dur
        name = event.get("name", "?")
        row["names"][name] = row["names"].get(name, 0.0) + dur
    for row in out.values():
        row["mean_us"] = row["total_us"] / row["spans"] if row["spans"] else 0.0
    return out
