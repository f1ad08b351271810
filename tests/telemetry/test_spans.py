"""Unit tests for spans and the tracer that hands them out."""

from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class TestSpan:
    def test_covers_sim_time(self):
        sim, t = Simulator(), Tracer()
        span = t.span("op", "libos", "x", sim.now)
        sim.call_in(100, lambda: span.end(sim.now))
        sim.run()
        assert span.start_ns == 0
        assert span.end_ns == 100
        assert span.duration_ns == 100
        assert t.spans == [span]

    def test_explicit_end_ns(self):
        sim, t = Simulator(), Tracer()
        # An end known analytically closes the span where it is made...
        made_closed = t.span("op", "device", "x", sim.now, 12345)
        assert made_closed.end_ns == 12345
        assert t.spans == [made_closed]
        # ...and never advances the clock to be observed.
        assert sim.now == 0

    def test_end_is_idempotent(self):
        t = Tracer()
        span = t.span("op", "app", "x", 0)
        span.end(10)
        span.end(99)
        assert span.end_ns == 10
        assert len(t.spans) == 1

    def test_listed_in_the_order_they_end(self):
        t = Tracer()
        first, second = t.span("a", "app", "x", 0), t.span("b", "app", "x", 1)
        never = t.span("c", "app", "x", 2)
        second.end(5)
        first.end(9)
        assert t.spans == [second, first]
        assert never.end_ns is None and never.duration_ns == 0

    def test_args_and_annotate(self):
        t = Tracer()
        span = t.span("op", "app", "x", 0, qd=3)
        span.annotate(nbytes=64)
        span.end(1, error=None)
        assert span.args == {"qd": 3, "nbytes": 64, "error": None}

    def test_ids_are_unique(self):
        t = Tracer()
        ids = {t.span("op", "app", "x", 0).id for _ in range(10)}
        assert len(ids) == 10


class TestScope:
    def test_scope_supplies_track_and_metric_prefix(self):
        t = Tracer()
        scope = t.scope("server").scope("catnip")
        span = scope.span("push", "libos", 7, qd=1)
        assert span.track == "server.catnip"
        assert (span.start_ns, span.args) == (7, {"qd": 1})
        assert scope.gauge("queue_depth") is t.gauge(
            "server.catnip.queue_depth")
        assert scope.distribution("wait_dispatch_ns") is t.distribution(
            "server.catnip.wait_dispatch_ns")


class TestDisabled:
    def test_off_by_default(self):
        assert Tracer().tracing is False

