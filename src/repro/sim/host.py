"""The simulated host: cores + devices + OS components under one roof.

A :class:`Host` is deliberately a thin container.  Subsystems (kernel,
memory manager, NICs, libOSes) are built by their own packages and hung
off the host so they can find each other without import cycles:

* ``host.cpus`` / ``host.cpu``  - simulated cores (``repro.sim.cpu``)
* ``host.kernel``               - legacy kernel   (``repro.kernelos``)
* ``host.mm``                   - memory manager  (``repro.memory``)
* ``host.nics`` / ``host.nvme`` - devices         (``repro.hw``)
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from .costs import CostModel, DEFAULT_COSTS
from .cpu import Core, CpuSet
from .engine import Process, Simulator
from .trace import Tracer

__all__ = ["Host"]


class Host:
    """One simulated machine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        costs: CostModel = DEFAULT_COSTS,
        cores: int = 4,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.name = name
        self.costs = costs
        self.tracer = tracer or Tracer()
        self.counters = self.tracer.scope(name)
        #: ``count(leaf, n=1)`` bumps ``<name>.<leaf>``
        self.count = self.counters.count
        self.cpus = CpuSet(sim, cores, costs.cpu_ghz)
        #: core 0 (where single-threaded apps run)
        self.cpu: Core = self.cpus[0]
        # Components attached by their builders:
        self.kernel: Any = None
        self.mm: Any = None
        self.nics: List[Any] = []
        self.nvme: Any = None
        self.extras: Dict[str, Any] = {}

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start an application process on this host."""
        return self.sim.spawn(gen, name="%s/%s" % (self.name, name or "proc"))

    def nic(self, index: int = 0) -> Any:
        return self.nics[index]

    def __repr__(self) -> str:  # pragma: no cover
        return "<Host %s cores=%d nics=%d>" % (self.name, len(self.cpus), len(self.nics))
