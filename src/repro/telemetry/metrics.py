"""The :class:`Gauge` value type: a level and its watermarks.

A gauge tracks what a plain count loses - queue depth, RX ring
occupancy - as the current value plus the highest and lowest it has
been.  Gauges live in the :class:`repro.sim.trace.Tracer` beside the
run's distributions (:class:`~repro.sim.trace.LatencyStats`); setting
one never advances sim time, schedules an event or touches a counter.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["Gauge"]


class Gauge:
    """An instantaneous level with min/max watermarks."""

    __slots__ = ("name", "value", "maximum", "minimum", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.maximum: Optional[int] = None
        self.minimum: Optional[int] = None
        self.updates = 0

    def set(self, value: int) -> None:
        self.value = value
        self.updates += 1
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.minimum is None or value < self.minimum:
            self.minimum = value

    def adjust(self, delta: int) -> None:
        self.set(self.value + delta)

    def summary(self) -> Dict[str, float]:
        return {
            "type": "gauge",
            "value": float(self.value),
            "max": float(self.maximum if self.maximum is not None else 0),
            "min": float(self.minimum if self.minimum is not None else 0),
            "updates": float(self.updates),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return "<Gauge %s=%d max=%r>" % (self.name, self.value, self.maximum)
