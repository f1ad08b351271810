"""The run's one registry: counters, fault timeline, and - while tracing -
spans, gauges and distributions.

Experiments reason about *why* a path is slow, not just how slow it is, so
every subsystem increments named counters on a shared :class:`Tracer`
(syscalls made, bytes copied, wake-ups wasted, frames dropped...).  A
counter is an integer field of its subsystem's :class:`CounterScope`, so a
bump is one attribute add; the tracer rolls the fields up into full names
only when it is read.  Tests assert on the counters; benchmark reports
print them next to latencies.

The same tracer also holds what is recorded only when ``tracing`` is on
(``World(telemetry=True)``): a :class:`~repro.telemetry.Span` per
operation, :class:`~repro.telemetry.Gauge` levels and
:class:`LatencyStats` distributions.  A site that records one guards on
the switch itself::

    if self.tracer.tracing:
        self.counters.span(names.SPAN_PUSH, names.CAT_LIBOS, self.sim.now)

so an untraced run constructs nothing, calls nothing and reads no clock.
Nothing traced enters :meth:`Tracer.signature`, and recording takes its
timestamps from the caller, so tracing cannot move an event.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple, Union

from ..telemetry import names
from ..telemetry.metrics import Gauge
from ..telemetry.spans import Span

__all__ = ["Tracer", "CounterScope", "LatencyStats"]


class CounterScope:
    """A tracer handle bound to one name prefix, holding that prefix's
    counters as integer fields: ``self.counters.tx_frames += 1``.

    Every leaf of ``names.COUNTER_FIELDS`` is a class-level 0, so the
    first bump creates the field and a leaf the registry lacks raises
    :class:`AttributeError`.  Computed (``rxq%d_frames``) and dotted
    (``ctrl.*``) leaves go through :meth:`count`, on the same storage.
    The full counter name is ``"<prefix>.<leaf>"``, so every pinned
    golden counter keeps its name.  The prefix is also the track of the
    scope's spans and the prefix of its gauges and distributions.
    """

    #: the instance ``__dict__`` holds only counters: leaf -> value
    __slots__ = ("tracer", "prefix", "__dict__")

    def __init__(self, tracer: "Tracer", prefix: str):
        self.tracer = tracer
        self.prefix = prefix

    def _full(self, name: str) -> str:
        return "%s.%s" % (self.prefix, name) if self.prefix else name

    def count(self, name: str, n: int = 1) -> None:
        """Bump leaf *name* by *n*; ``count(name, 0)`` creates it at 0."""
        fields = self.__dict__
        fields[name] = fields.get(name, 0) + n

    def scope(self, suffix: str) -> "CounterScope":
        """A nested scope: ``scope("a").scope("b")`` prefixes ``a.b``."""
        return self.tracer.scope(self._full(suffix))

    # Tracing: call these only under ``if tracer.tracing:``.
    def span(self, name: str, cat: str, start_ns: int,
             end_ns: Optional[int] = None, parent: Optional[Span] = None,
             **args) -> Span:
        """:meth:`Tracer.span` on this scope's track."""
        return self.tracer.span(name, cat, self.prefix, start_ns, end_ns,
                                parent, **args)

    def gauge(self, name: str) -> Gauge:
        return self.tracer.gauge(self._full(name))

    def distribution(self, name: str) -> "LatencyStats":
        return self.tracer.distribution(self._full(name))

    def __repr__(self) -> str:  # pragma: no cover
        return "<CounterScope %r>" % self.prefix


for _leaf in names.COUNTER_FIELDS:
    if hasattr(CounterScope, _leaf):
        raise TypeError("counter leaf %r shadows CounterScope.%s"
                        % (_leaf, _leaf))
    setattr(CounterScope, _leaf, 0)
del _leaf


class Tracer:
    """Named counters plus an optional bounded event log; with
    :attr:`tracing` on, also the run's spans, gauges and distributions."""

    def __init__(self, keep_events: bool = False, max_events: int = 100000):
        #: full prefix -> its one scope, in the order first asked for
        self._scopes: Dict[str, CounterScope] = {}
        self.keep_events = keep_events
        self.max_events = max_events
        self.events: List[Tuple[int, str, Any]] = []
        #: the one switch (``World(telemetry=True)`` sets it); every
        #: recording site checks it before it touches what follows
        self.tracing = False
        #: finished spans, in the order they ended
        self.spans: List[Span] = []
        #: gauges and distributions by full name
        self.metrics: Dict[str, Union[Gauge, LatencyStats]] = {}
        self._next_span_id = 1

    @property
    def counters(self) -> Dict[str, int]:
        """Every counter by full name, rolled up from the scopes' fields
        at this read.  The dict is new on every read, so a never-bumped
        name reads 0 from it without the tracer ever holding that name."""
        out: Dict[str, int] = defaultdict(int)
        for prefix, scope in self._scopes.items():
            for leaf, value in scope.__dict__.items():
                name = "%s.%s" % (prefix, leaf) if prefix else leaf
                # "a" + "b.c" and "a.b" + "c" are one counter, as they
                # were when every bump wrote one dict
                out[name] += value
        return out

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def scope(self, prefix: str) -> CounterScope:
        """The handle that prefixes every counter with ``prefix.``: one
        per prefix, so two asks share their fields."""
        scope = self._scopes.get(prefix)
        if scope is None:
            scope = self._scopes[prefix] = CounterScope(self, prefix)
        return scope

    def record(self, now: int, event: str, detail: Any = None) -> None:
        if self.keep_events and len(self.events) < self.max_events:
            self.events.append((now, event, detail))

    def span(self, name: str, cat: str, track: str, start_ns: int,
             end_ns: Optional[int] = None, parent: Optional[Span] = None,
             **args) -> Span:
        """A span from *start_ns*.  It joins :attr:`spans` when it ends:
        at once if *end_ns* is given, else at its ``end(end_ns)``."""
        span = Span(self, self._next_span_id, name, cat, track, start_ns,
                    parent, args)
        self._next_span_id += 1
        if end_ns is not None:
            span.end(end_ns)
        return span

    def _metric(self, cls, name: str):
        metric = self.metrics.get(name)
        if metric is None:
            metric = self.metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError("metric %r already registered as %s"
                            % (name, type(metric).__name__))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*, made on first use."""
        return self._metric(Gauge, name)

    def distribution(self, name: str) -> "LatencyStats":
        """The distribution called *name*, made on first use."""
        return self._metric(LatencyStats, name)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def diff(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since a :meth:`snapshot`."""
        out: Dict[str, int] = {}
        for name, value in self.counters.items():
            delta = value - before.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def signature(self) -> str:
        """A stable digest of counters + event timeline.

        Two runs of the same (seed, plan) must produce the same
        signature; chaos tests compare these to prove reproducibility.
        Spans, gauges and distributions stay out of it, so a run signs
        the same with tracing on or off.
        """
        digest = hashlib.sha1()
        counters = self.counters
        for name in sorted(counters):
            digest.update(("%s=%d;" % (name, counters[name])).encode())
        for now, event, detail in self.events:
            digest.update(("%d:%s:%r;" % (now, event, detail)).encode())
        return digest.hexdigest()


class LatencyStats:
    """Streaming collection of latency samples with percentile queries."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        self.samples.append(float(value))

    def extend(self, values) -> None:
        self.samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError("percentile out of range: %r" % p)
        ordered = sorted(self.samples)
        if p == 0:
            return ordered[0]
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }

    def describe(self, unit: str = "ns") -> str:
        if not self.samples:
            return "%s: no samples" % (self.name or "stats")
        return "%s: n=%d mean=%.0f%s p50=%.0f%s p99=%.0f%s" % (
            self.name or "stats",
            self.count,
            self.mean,
            unit,
            self.p50,
            unit,
            self.p99,
            unit,
        )
