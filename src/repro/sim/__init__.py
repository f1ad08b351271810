"""Discrete-event simulation substrate (engine, CPU, costs, fabric, host)."""

from .costs import DEFAULT_COSTS, CostModel
from .cpu import Core, CpuSet
from .engine import (
    AnyWait,
    Completion,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)
from .fabric import BROADCAST_ADDR, Fabric, Port
from .faults import DeviceFaultView, FaultEvent, FaultInjector, FaultPlan
from .host import Host
from .rand import Rng
from .trace import LatencyStats, Tracer

__all__ = [
    "Simulator",
    "Completion",
    "Process",
    "Interrupt",
    "AnyWait",
    "Core",
    "CpuSet",
    "CostModel",
    "DEFAULT_COSTS",
    "Fabric",
    "FaultPlan",
    "FaultInjector",
    "Host",
    "Rng",
    "Tracer",
    "LatencyStats",
]
