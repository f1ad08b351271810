"""Unit tests for what the tracer keeps beside spans: its counters, and
the gauges and distributions it makes on first use."""

import pytest

from repro.sim.trace import LatencyStats, Tracer
from repro.telemetry import Gauge


class TestCounter:
    """The one counter path is a scope's ``count`` into the tracer."""

    def test_incs_accumulate(self):
        t = Tracer()
        c = t.scope("c")
        c.count("n")
        c.count("n", 41)
        assert t.get("c.n") == 42

    def test_summary(self):
        t = Tracer()
        c = t.scope("")
        c.count("c", 7)
        before = t.snapshot()
        assert before == {"c": 7}
        c.count("c", 2)
        assert t.diff(before) == {"c": 2}


class TestGauge:
    def test_set_and_watermarks(self):
        g = Gauge("g")
        g.set(5)
        g.set(2)
        g.set(9)
        assert g.value == 9
        assert g.minimum == 2
        assert g.maximum == 9
        assert g.updates == 3

    def test_adjust(self):
        g = Gauge("g")
        g.set(10)
        g.adjust(-3)
        assert g.value == 7


class TestDistribution:
    """A traced distribution is a ``LatencyStats``: every sample kept."""

    def test_count_mean_min_max(self):
        d = Tracer().distribution("d")
        assert isinstance(d, LatencyStats) and d.name == "d"
        for v in (1, 2, 4, 1024):
            d.add(v)
        assert d.count == 4
        assert d.minimum == 1
        assert d.maximum == 1024
        assert d.mean == pytest.approx(1031 / 4)

    def test_percentiles_are_exact(self):
        d = Tracer().distribution("d")
        for _ in range(99):
            d.add(10)
        d.add(100_000)
        # The log2 histogram this replaced could only say "below 16" and
        # "at least 65 536"; nearest rank over the samples says which.
        assert d.percentile(50) == 10
        assert d.percentile(99) == 10
        assert d.percentile(100) == 100_000


class TestHub:
    """The tracer is the registry: metrics are made lazily, by name."""

    def test_lazy_registration_returns_same_metric(self):
        t = Tracer()
        assert t.metrics == {}
        assert t.gauge("x") is t.gauge("x")
        assert t.distribution("y") is t.distribution("y")
        assert sorted(t.metrics) == ["x", "y"]

    def test_type_mismatch_raises(self):
        t = Tracer()
        t.gauge("x")
        with pytest.raises(TypeError):
            t.distribution("x")
