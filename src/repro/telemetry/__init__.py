"""Names, value types and exporters for what a run records.

There is one registry, :class:`repro.sim.trace.Tracer`: counters and the
fault timeline always, spans, gauges and distributions while its
``tracing`` switch is on (``World(telemetry=True)``).  This package holds
what the tracer is made of and what reads it:

* :mod:`repro.telemetry.names`   - every counter, span, category, gauge
  and distribution name;
* :mod:`repro.telemetry.spans` / :mod:`repro.telemetry.metrics` - the
  :class:`Span` and :class:`Gauge` value types;
* :mod:`repro.telemetry.export`  - Chrome ``trace_event`` JSON and
  plain-dict snapshots, as functions of a tracer.

Nothing traced enters ``Tracer.signature()``, reads a clock of its own,
advances sim time or schedules an event, so a run's signature is
byte-identical with tracing on or off (the chaos golden seeds rely on
this; ``tests/chaos/test_golden_table.py`` asserts it per cell).
"""

from . import names
from .export import (breakdown_from_events, chrome_trace_events,
                     counter_rollup, snapshot, write_chrome_trace)
from .metrics import Gauge
from .spans import Span

__all__ = [
    "names",
    "Gauge",
    "Span",
    "chrome_trace_events",
    "write_chrome_trace",
    "snapshot",
    "breakdown_from_events",
    "counter_rollup",
]
