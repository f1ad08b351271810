"""The :class:`Span` value type.

A span covers one logical operation - a push from syscall to
completion, a pop from request to wake-up, a TCP segment from transmit
to ack, an NVMe command from submit to complete - with sim-time start
and end, so a trace viewer can show where inside a request the
nanoseconds went (the attribution the paper's
claims C1-C5 argue about).

Spans are made by :meth:`repro.sim.trace.Tracer.span` (or a
:class:`~repro.sim.trace.CounterScope`, which supplies the track) and
every timestamp is handed in by the caller from the simulator clock:
a span never reads a clock, advances sim time or schedules an event.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Span"]


class Span:
    """One timed operation: [start_ns, end_ns] on a named track."""

    __slots__ = ("tracer", "id", "name", "cat", "track",
                 "start_ns", "end_ns", "args")

    def __init__(self, tracer, span_id: int, name: str, cat: str, track: str,
                 start_ns: int, args: Optional[dict] = None):
        self.tracer = tracer
        self.id = span_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.args = dict(args) if args else {}

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def annotate(self, **args) -> None:
        self.args.update(args)

    def end(self, end_ns: int, **args) -> None:
        """Finish the span at *end_ns* (idempotent) and record it.

        The tracer lists spans in the order they end; one that never
        ends is never listed.  *end_ns* may lie in the future when it is
        known analytically (a device pipeline's computed completion
        time), which saves scheduling an event just to observe it.
        """
        if self.end_ns is not None:
            return
        self.end_ns = end_ns
        if args:
            self.args.update(args)
        self.tracer.spans.append(self)

    def __repr__(self) -> str:  # pragma: no cover
        return "<Span %s/%s [%d, %r]>" % (self.cat, self.name,
                                          self.start_ns, self.end_ns)
