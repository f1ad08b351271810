"""Packet steering pipelines (claim C6, the FlexNIC-style use case).

Section 4.3: "[filters] can improve cache utilization by steering I/O to
CPUs based on application-specific parameters (e.g., keys in a key-value
store)."  This app builds that pipeline: a router pops the source queue,
evaluates a partition function on every element (one filter-function
evaluation, exactly what a steering filter costs), and pushes the element
into the matching per-partition queue.

The partition function runs through :class:`repro.core.pipeline.
ElementRunner`, so with an offload-capable NIC it executes on the device
and costs the host **zero CPU**; without one, every element burns
``pipeline_element_cpu_ns`` on the host core.  The C6 benchmark measures
that delta.
"""

from __future__ import annotations

from typing import Generator, List

from ..core.api import LibOS
from ..core.pipeline import ElementRunner
from ..core.types import Sga
from ..hw.nic import rss_hash

__all__ = ["SteeringPipeline", "partition_of", "key_partition"]


def partition_of(sga: Sga, n_partitions: int) -> int:
    """Steer by the first payload byte (a key hash in a real KV store)."""
    data = sga.tobytes()
    return data[0] % n_partitions if data else 0


def key_partition(key: bytes, n_partitions: int) -> int:
    """Which shard owns *key* in a sharded KV store.

    Uses the NIC's RSS hash (:func:`repro.hw.nic.rss_hash`) so software
    partitioning and hardware steering agree by construction: a client
    that wants shard *q* steers its *flow* there (source-port choice),
    and sends only keys with ``key_partition(key, n) == q`` on it.
    """
    return rss_hash(key) % n_partitions if n_partitions > 1 else 0


class SteeringPipeline:
    """source queue -> [partition function] -> per-partition queues."""

    def __init__(self, libos: LibOS, n_partitions: int):
        self.libos = libos
        self.n_partitions = n_partitions
        self.source_qd = libos.queue()
        self.partition_qds: List[int] = [libos.queue()
                                         for _ in range(n_partitions)]
        self.runner = ElementRunner(libos, "filter")
        self.routed = 0
        self._stop = False
        self._router_proc = libos.sim.spawn(self._router(),
                                            name="%s.steer" % libos.name)

    def _router(self) -> Generator:
        libos = self.libos
        n = self.n_partitions
        while not self._stop:
            result = yield from libos.blocking_pop(self.source_qd)
            if result.error is not None:
                break
            partition = yield from self.runner.run(
                lambda sga: partition_of(sga, n), result.sga)
            yield from libos.blocking_push(self.partition_qds[partition],
                                           result.sga)
            self.routed += 1

    def stop(self) -> None:
        self._stop = True
        if self._router_proc.alive:
            self._router_proc.interrupt("steering stopped")

    def inject(self, payloads: List[bytes]) -> Generator:
        """Push raw elements into the source (stands in for NIC arrivals)."""
        for payload in payloads:
            yield from self.libos.blocking_push(
                self.source_qd, self.libos.sga_alloc(payload))

    def drain_partition(self, partition: int, count: int) -> Generator:
        """Pop *count* elements from one partition queue."""
        out = []
        for _ in range(count):
            result = yield from self.libos.blocking_pop(
                self.partition_qds[partition])
            if result.error is not None:
                break
            out.append(result.sga.tobytes())
        return out
