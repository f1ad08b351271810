"""Exporter tests: Chrome trace shape, snapshot, report breakdown."""

import json

from repro.sim.trace import Tracer
from repro.telemetry import (breakdown_from_events, chrome_trace_events,
                             snapshot, write_chrome_trace)


def make_populated():
    t = Tracer()
    t.keep_events = True
    t.span("push", "libos", "catnip", 0, 1_000, qd=3)
    t.span("rx", "netstack", "catnip", 0, 2_500)
    t.span("nic_tx", "device", "dpdk0", 0, 500)
    t.distribution("qtoken_lifetime_ns").add(1_000)
    return t


class TestChromeTrace:
    def test_events_are_complete_x_events(self):
        events = chrome_trace_events(make_populated())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        for e in xs:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                    "args"} <= set(e)

    def test_ns_precision_in_us_floats(self):
        t = Tracer()
        t.span("op", "libos", "x", 0, 1_234)
        (x,) = [e for e in chrome_trace_events(t) if e["ph"] == "X"]
        assert x["dur"] == 1.234

    def test_tracks_become_named_processes(self):
        events = chrome_trace_events(make_populated())
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"catnip", "dpdk0"}
        # Spans on the same track share a pid; categories split tids.
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert xs["push"]["pid"] == xs["rx"]["pid"]
        assert xs["push"]["tid"] != xs["rx"]["tid"]

    def test_unfinished_spans_are_skipped(self):
        t = Tracer()
        t.span("never-ended", "app", "x", 0)
        assert chrome_trace_events(t) == []

    def test_fault_timeline_becomes_instants_on_a_faults_track(self):
        t = make_populated()
        without = chrome_trace_events(t)
        t.record(700, "fault.lost_frames", "client->server")
        t.record(900, "fault.nic_stalled_descs", "server.dpdk0")
        events = chrome_trace_events(t)
        # Everything a fault-free trace holds, unchanged, then the track.
        assert events[:len(without)] == without
        track, *instants = events[len(without):]
        assert track["name"] == "process_name"
        assert track["args"] == {"name": "faults"}
        assert [(e["ph"], e["name"], e["ts"], e["args"]["detail"])
                for e in instants] == [
            ("i", "fault.lost_frames", 0.7, "client->server"),
            ("i", "fault.nic_stalled_descs", 0.9, "server.dpdk0")]
        assert {e["pid"] for e in instants} == {track["pid"]}
        # The per-layer report reads spans only.
        assert breakdown_from_events(events) == breakdown_from_events(without)

    def test_json_round_trip(self, tmp_path):
        t = make_populated()
        t.record(700, "fault.lost_frames", "client->server")
        path = tmp_path / "trace.json"
        n = write_chrome_trace(t, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ns"


class TestSnapshot:
    def test_rollups_and_metrics(self):
        snap = snapshot(make_populated())
        assert snap["span_count"] == 3
        assert snap["spans_by_category"]["libos"]["count"] == 1
        assert snap["spans_by_category"]["libos"]["total_ns"] == 1_000
        assert snap["spans_by_name"]["nic_tx"]["max_ns"] == 500
        assert snap["metrics"]["qtoken_lifetime_ns"]["count"] == 1.0


class TestBreakdown:
    def test_per_category_totals(self):
        b = breakdown_from_events(chrome_trace_events(make_populated()))
        assert b["libos"]["spans"] == 1
        assert b["libos"]["total_us"] == 1.0
        assert b["netstack"]["total_us"] == 2.5
        assert b["device"]["mean_us"] == 0.5
        assert b["libos"]["names"] == {"push": 1.0}

    def test_accepts_whole_document(self):
        events = chrome_trace_events(make_populated())
        doc = {"traceEvents": events, "displayTimeUnit": "ns"}
        assert breakdown_from_events(doc) == breakdown_from_events(events)
