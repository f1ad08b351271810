"""Simulated CPU cores.

A :class:`Core` is a serial resource: work charged to it executes FIFO, so
two processes charging the same core contend and queue, exactly like two
threads pinned to one hardware thread.  Work is charged in nanoseconds.

The model is intentionally non-preemptive at sub-slice granularity: each
``busy()`` chunk runs to completion.  Callers that want preemptible work
should charge it in smaller chunks (the kernel scheduler model in
``repro.kernelos`` does this for long copies).
"""

from __future__ import annotations

from typing import List, Optional

from .engine import Completion, Simulator, Timeout

__all__ = ["Core", "CpuSet"]


def _whole_ns(ns) -> int:
    """The one validation of a charge: whole nanoseconds, never negative
    (a negative charge would rewind ``busy_ns`` and the free horizon).
    The charging methods call it only for what is not already a
    non-negative ``int``."""
    ns = int(ns)
    if ns < 0:
        raise ValueError("negative CPU charge %d" % ns)
    return ns


class Core:
    """One hardware thread with a FIFO run queue."""

    def __init__(self, sim: Simulator, index: int = 0):
        self.sim = sim
        self.index = index
        self._free_at = 0
        self.busy_ns = 0

    def busy(self, ns: int) -> Completion:
        """Charge *ns* of CPU time; the completion fires when the work ends.

        If the core is already busy the work queues behind the in-flight
        jobs (FIFO), modelling contention between co-located threads.
        """
        if ns.__class__ is not int or ns < 0:
            ns = _whole_ns(ns)
        now = self.sim._now
        start = self._free_at
        if start < now:
            start = now
        done = start + ns
        self._free_at = done
        self.busy_ns += ns
        return Timeout(self.sim, done - now)

    def charge_async(self, ns: int) -> None:
        """Account CPU time that nobody waits on (e.g. softirq work)."""
        if ns.__class__ is not int or ns < 0:
            ns = _whole_ns(ns)
        now = self.sim._now
        start = self._free_at
        if start < now:
            start = now
        self._free_at = start + ns
        self.busy_ns += ns

    def charge_retro(self, ns: int) -> None:
        """Account CPU time that was burned while wall time already passed.

        A poll-mode driver spinning on an empty ring is busy for the
        whole spin, but the spin's wall time has elapsed by the time the
        accounting happens - the work must not push the core's free
        horizon into the future the way :meth:`busy`/:meth:`charge_async`
        do, or the spin would delay work that in reality ran on other
        cycles interleaved with it.
        """
        if ns.__class__ is not int or ns < 0:
            ns = _whole_ns(ns)
        self.busy_ns += ns

    @property
    def free_at(self) -> int:
        """The instant the work already charged here runs out (may be past)."""
        return self._free_at

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of elapsed simulated time this core spent busy."""
        elapsed = elapsed_ns if elapsed_ns is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed)

    def __repr__(self) -> str:  # pragma: no cover
        return "<Core %d busy=%dns>" % (self.index, self.busy_ns)


class CpuSet:
    """A host's collection of cores."""

    def __init__(self, sim: Simulator, count: int = 1):
        if count < 1:
            raise ValueError("a host needs at least one core")
        self.sim = sim
        self.cores: List[Core] = [Core(sim, i) for i in range(count)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, i: int) -> Core:
        return self.cores[i]

    def total_busy_ns(self) -> int:
        return sum(c.busy_ns for c in self.cores)
