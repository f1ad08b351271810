"""On-device offload engines (the paper's "+other features" category).

Programmable NICs (FPGA or SoC based) can run application-supplied
element functions - the Demikernel queue ``filter``/``map``/``sort``
operators - on the device instead of the host CPU.  The engine executes a
Python callable per element but charges *device-side* time for it, and
crucially charges **zero host-CPU time**: that is the entire point of
offload (claim C6).

The engine advertises capabilities; ``repro.core.pipeline`` asks
:meth:`supports` when deciding where to place an operator, defaulting to
the CPU when the device cannot help (section 4.2: "library OSes always
implement filters directly on supported devices but default to using the
CPU if necessary").
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet

from ..telemetry import names
from .device import Device

__all__ = ["OffloadEngine"]

ALL_OFFLOADS: FrozenSet[str] = frozenset({"filter", "map", "sort"})


class OffloadEngine(Device):
    """A device-side element-function executor attached to a NIC."""

    kind = "offload-engine"

    def __init__(self, host, name: str = "offload0"):
        super().__init__(host, name)
        self.capabilities = ALL_OFFLOADS
        self.element_ns = self.costs.offload_element_ns
        self._busy_free_at = 0
        self.device_busy_ns = 0

    def attach(self, nic: Any) -> None:
        """Hang this engine off a NIC (making it a 'programmable NIC')."""
        nic.offload = self

    def supports(self, operator: str) -> bool:
        return operator in self.capabilities

    def _occupy(self, ns: int) -> int:
        """FIFO device pipeline occupancy; returns delay from now."""
        now = self.sim._now
        start = max(now, self._busy_free_at)
        self._busy_free_at = start + ns
        self.device_busy_ns += ns
        return start + ns - now

    def charge_device(self, ns: int) -> int:
        """Occupy the device pipeline for *ns* of extra work (e.g. a DMA
        fetch a device-resident program issues); returns the delay from
        now until that work completes.  Never charges host CPU."""
        return self._occupy(int(ns))

    def run(self, operator: str, fn: Callable, element: Any):
        """Execute one element function on-device.

        Returns a completion firing with ``fn(element)``; the caller's CPU
        is never charged.  The function runs when the device pipeline
        reaches the element - not at submit time - and a raising function
        becomes an *error completion* (the exception is re-raised in the
        waiter), never a silently-leaked one.  Raises if the operator is
        not supported - the placement logic should have checked
        :meth:`supports` first.
        """
        if not self.supports(operator):
            raise ValueError(
                "%s does not support %r offload" % (self.name, operator)
            )
        delay = self._occupy(self.element_ns)
        self.counters.count(names.offloaded(operator))
        done = self.sim.completion("%s.%s" % (self.name, operator))
        self.sim.call_in(delay, self._execute, done, operator, fn, element)
        return done

    def _execute(self, done, operator: str, fn: Callable, element: Any) -> None:
        """Completion-time element execution (the device 'pipeline stage')."""
        try:
            result = fn(element)
        except Exception as exc:
            self.counters.offload_element_faults += 1
            done.fail(exc)
            return
        done.trigger(result)

    def run_now(self, operator: str, fn: Callable, element: Any):
        """Synchronous variant for device-internal datapath hooks: executes
        the function, accounts device time, returns the result directly.

        Used when the element function runs inline with frame processing
        (e.g. an RX filter) and the extra completion hop would distort
        timing: the device pipeline absorbs the cost.
        """
        if not self.supports(operator):
            raise ValueError(
                "%s does not support %r offload" % (self.name, operator)
            )
        self._occupy(self.element_ns)
        self.counters.count(names.offloaded(operator))
        return fn(element)
