#!/usr/bin/env python3
"""Queue pipelines and device offload (sections 4.2-4.3).

Composes filter -> map pipelines out of Demikernel queue operators,
then runs one key filter twice - once with its predicate on the host
CPU, once offloaded to a programmable NIC's engine - and prints the
host-CPU difference.

Run:  python examples/pipeline_offload.py
"""

from repro.bench.report import print_table, us
from repro.core.api import LibOS
from repro.hw.offload import OffloadEngine
from repro.testbed import World


def composed_pipeline():
    """filter out comments, uppercase the rest - as queue operators."""
    world = World()
    host = world.add_host("h")
    libos = LibOS(host, "demi")

    source = libos.queue()
    no_comments = libos.filter(
        source, lambda sga: not sga.tobytes().startswith(b"#"))
    shouted = libos.map(
        no_comments, lambda sga: libos.sga_alloc(sga.tobytes().upper()))

    lines = [b"# header", b"first", b"# comment", b"second", b"third"]

    def proc():
        for line in lines:
            yield from libos.blocking_push(source, libos.sga_alloc(line))
        out = []
        for _ in range(3):
            result = yield from libos.blocking_pop(shouted)
            out.append(result.sga.tobytes())
        return out

    p = world.sim.spawn(proc())
    world.sim.run_until_complete(p, limit=10**12)
    print("pipeline output:", p.value)
    assert p.value == [b"FIRST", b"SECOND", b"THIRD"]


def filter_placement():
    """The same key filter with its predicate on the host CPU, then on
    the device: libos.filter places it wherever the engine supports it."""
    rows = []
    for offloaded in (False, True):
        world = World()
        host = world.add_host("h")
        libos = LibOS(host, "demi")
        if offloaded:
            libos.offload_engine = OffloadEngine(host)
        source = libos.queue()
        even_keys = libos.filter(source,
                                 lambda sga: sga.tobytes()[0] % 2 == 0)
        payloads = [bytes([i % 16]) + b"key-data" for i in range(200)]

        def proc():
            for payload in payloads:
                yield from libos.blocking_push(source,
                                               libos.sga_alloc(payload))
            for _ in range(100):
                yield from libos.blocking_pop(even_keys)

        p = world.sim.spawn(proc())
        world.sim.run_until_complete(p, limit=10**12)
        rows.append((
            "device (offloaded)" if offloaded else "host CPU",
            us(libos.core.busy_ns),
            us(libos.offload_engine.device_busy_ns) if offloaded else "-",
        ))
    print_table("key filter: 200 elements through one predicate",
                ["placement", "host CPU", "device time"], rows)


if __name__ == "__main__":
    composed_pipeline()
    filter_placement()
