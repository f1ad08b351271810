"""Tests for WaitQueue synchronization and the Tracer."""

from repro.sim.engine import Simulator
from repro.sim.sync import WaitQueue
from repro.sim.trace import LatencyStats, Tracer

import pytest


class TestWaitQueue:
    def test_pulse_wakes_all_waiters(self):
        sim = Simulator()
        wq = WaitQueue(sim)
        woken = []

        def waiter(name):
            value = yield wq.wait()
            woken.append((name, value))

        for name in ("a", "b", "c"):
            sim.spawn(waiter(name))
        sim.call_in(10, wq.pulse, "go")
        sim.run()
        assert sorted(woken) == [("a", "go"), ("b", "go"), ("c", "go")]

    def test_pulse_returns_wake_count(self):
        sim = Simulator()
        wq = WaitQueue(sim)

        def waiter():
            yield wq.wait()

        sim.spawn(waiter())
        sim.spawn(waiter())
        sim.run()  # both block
        assert wq.pulse() == 2
        assert wq.pulse() == 0  # the woken left; nobody waits now

    def test_observers_run_on_every_pulse(self):
        sim = Simulator()
        wq = WaitQueue(sim)
        observed = []
        wq.subscribe(lambda: observed.append(sim.now))
        wq.pulse()
        wq.pulse()
        assert len(observed) == 2


class TestTracer:
    def test_count_and_get(self):
        t = Tracer()
        t.scope("").count("x")
        t.scope("").count("x", 4)
        assert t.get("x") == 5
        assert t.get("missing") == 0

    def test_snapshot_diff(self):
        t = Tracer()
        s = t.scope("")
        s.count("a", 3)
        snap = t.snapshot()
        s.count("a", 2)
        s.count("b", 7)
        s.count("c", 0)
        assert t.diff(snap) == {"a": 2, "b": 7}

    def test_events_recorded_when_enabled(self):
        t = Tracer(keep_events=True)
        t.record(100, "frame_rx", {"len": 64})
        t.record(200, "frame_tx")
        assert t.events == [(100, "frame_rx", {"len": 64}),
                            (200, "frame_tx", None)]

    def test_events_dropped_when_disabled(self):
        t = Tracer(keep_events=False)
        t.record(1, "ignored")
        assert t.events == []

    def test_event_cap_respected(self):
        t = Tracer(keep_events=True, max_events=3)
        for i in range(10):
            t.record(i, "e")
        assert len(t.events) == 3


class TestCounterScope:
    def test_scope_prefixes_counts(self):
        t = Tracer()
        s = t.scope("host0")
        s.count("pushes")
        s.count("pushes", 2)
        assert t.get("host0.pushes") == 3

    def test_scope_name_matches_inline_formatting(self):
        # The migration contract: scoped names are byte-identical to the
        # old '"%s.%s" % (prefix, leaf)' strings the goldens pin.
        t = Tracer()
        t.scope("catnip").count("tcp_tx_elements")
        assert "catnip.tcp_tx_elements" in t.counters

    def test_nested_scopes_join_with_dots(self):
        t = Tracer()
        kernel = t.scope("host0").scope("kernel")
        kernel.count("syscalls", 5)
        assert t.get("host0.kernel.syscalls") == 5

    def test_empty_prefix_is_passthrough(self):
        t = Tracer()
        t.scope("").count("bare")
        assert t.get("bare") == 1

    def test_scopes_share_the_tracer(self):
        t = Tracer()
        a, b = t.scope("h"), t.scope("h")
        a.count("x")
        b.count("x")
        assert t.get("h.x") == 2

    def test_memoised_names_are_the_formatted_names(self):
        # The tracer joins each scope's prefix and leaf when it is read;
        # every name must be the one the '%'-format produced, on the
        # first bump and after.
        t = Tracer()
        nested = t.scope("a").scope("b")
        for _ in range(3):
            nested.count("x")
            nested.count("rxq3_frames", 2)
            t.scope("").count("bare")
        assert dict(t.counters) == {"a.b.x": 3, "a.b.rxq3_frames": 6,
                                    "bare": 3}
        assert nested.prefix == "a.b"


class TestLatencyStats:
    def test_empty_stats_are_nan(self):
        import math
        stats = LatencyStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.p50)

    def test_describe_mentions_name(self):
        stats = LatencyStats("rtt")
        stats.add(100)
        assert "rtt" in stats.describe()
        assert "n=1" in stats.describe()

    def test_describe_empty(self):
        assert "no samples" in LatencyStats("x").describe()

    def test_percentile_bounds_checked(self):
        stats = LatencyStats()
        stats.add(1)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.extend([1, 2, 3])
        summary = stats.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1 and summary["max"] == 3
