"""Base class for simulated I/O devices."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.host import Host

__all__ = ["Device"]


class Device:
    """Common plumbing: a device belongs to a host and counts events."""

    kind = "device"

    def __init__(self, host: "Host", name: str):
        self.host = host
        self.sim = host.sim
        self.costs = host.costs
        self.tracer = host.tracer
        self.name = name
        self.counters = self.tracer.scope(name)
        #: ``count(leaf, n=1)`` bumps ``<name>.<leaf>``
        self.count = self.counters.count
        #: set by repro.sim.faults.FaultInjector; None = no faults
        self.faults = None

    def __repr__(self) -> str:  # pragma: no cover
        return "<%s %s>" % (type(self).__name__, self.name)
