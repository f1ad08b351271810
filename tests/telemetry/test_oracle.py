"""The tracing-on oracle: what three traced runs record, pinned.

Recorded at the commit before spans, gauges and distributions moved from
the ``Telemetry`` hub into the :class:`~repro.sim.trace.Tracer`, with
``run_scenario(workload, kind, plan=FaultPlan(seed=42), telemetry=True)``:
the span count, the per-category ``(count, total_ns)`` of
``repro.telemetry.snapshot``, each gauge's maximum and each
distribution's sample count.  A change to where a span starts or ends,
to which tokens get one, or to what a site samples moves a number here;
a refactoring of the registry moves none.  (``storage-spdk`` was
re-recorded when the log store began to serve records from the blocks its
last read brought in: 20 device spans became 9 - two flushes and each of
the seven blocks once - and the pops' libOS time fell with them; and
again when a read-span miss began to read ahead: the seven blocks come
in one read, so 9 device spans became 3, device time fell by 420 us and
the pops' libOS time by 421.8 us.  ``echo-dpdk`` was re-recorded when
every dpdk libOS began to ring its doorbell from a flush after the
event that sent the frame: the wire is unchanged, but a push's wait no
longer queues behind the 200 ns doorbell, so each of the 40 pops is
posted ~200 ns earlier and lives that much longer - 8 000 ns of libOS
time - and one client ACK span is 200 ns shorter.  ``kv-posix`` was
re-recorded when an accept became a pop on the listening queue: the
server's accept pops are libOS spans that last until each connection
arrives, where the event loop's hand-off pops used to be - libOS time
1 548 482 -> 2 527 551 ns, one qtoken lifetime fewer (the last accept
pop is cancelled at stop, not completed), 330 ns of netstack time
less; and again when the kernel NIC began to hand a frame that lands
during its NAPI poll to the running poll without an interrupt: the same
spans, but libOS time 2 527 551 -> 2 543 251 ns and tx->ack time
1 112 610 -> 1 114 010 ns, as the server's softirq core frees earlier
and the pops and ACKs it gates land at other instants.)

Two things are exempt, on purpose.  The percentiles of the three
distributions that used to be log2 histograms (qtoken lifetime, wait
dispatch, kernel bytes copied) are exact now and so differ from the
bucket upper bounds the hub reported; only their counts are pinned.  And
a gauge nobody ever set (every ``queue_depth`` below: each pop was
posted before its element arrived) used to be registered at construction
with a maximum of None; it is now made on first use, so it is absent.
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.sim.trace import LatencyStats
from repro.telemetry import Gauge, snapshot
from repro.testing import run_scenario

ORACLE = {
    ("echo", "dpdk"): {
        "span_count": 170,
        "by_category": {"device": (50, 31_059), "libos": (80, 141_489),
                        "netstack": (40, 276_135)},
        "gauge_max": {"client.dpdk0.rxq0_occupancy": 1,
                      "server.dpdk0.rxq0_occupancy": 1},
        "distribution_count": {
            "client.catnip.qtoken_lifetime_ns": 40,
            "client.catnip.wait_dispatch_ns": 40,
            "server.catnip.qtoken_lifetime_ns": 40,
            "server.catnip.wait_dispatch_ns": 40},
    },
    ("kv", "posix"): {
        "span_count": 330,
        "by_category": {"device": (87, 52_395), "libos": (163, 2_543_251),
                        "netstack": (80, 1_114_010)},
        "gauge_max": {},
        "distribution_count": {
            "client.catnap.qtoken_lifetime_ns": 80,
            "client.catnap.wait_dispatch_ns": 80,
            "client.kernel.copied_bytes_per_op": 80,
            "server.catnap.qtoken_lifetime_ns": 82,
            "server.catnap.wait_dispatch_ns": 83,
            "server.kernel.copied_bytes_per_op": 80},
    },
    ("storage", "spdk"): {
        "span_count": 27,
        "by_category": {"device": (3, 209_336), "libos": (24, 84_188)},
        "gauge_max": {},
        "distribution_count": {"h.catfish.qtoken_lifetime_ns": 24,
                               "h.catfish.wait_dispatch_ns": 24},
    },
}


@pytest.mark.parametrize("name,kind", sorted(ORACLE),
                         ids=["%s-%s" % cell for cell in sorted(ORACLE)])
def test_traced_run_records_what_it_always_did(name, kind):
    result = run_scenario(name, kind, plan=FaultPlan(seed=42),
                          telemetry=True).require_ok()
    tracer = result.world.tracer
    snap = snapshot(tracer)
    metrics = tracer.metrics.items()
    assert {
        "span_count": snap["span_count"],
        "by_category": {cat: (row["count"], row["total_ns"])
                        for cat, row in snap["spans_by_category"].items()},
        "gauge_max": {n: m.maximum for n, m in metrics
                      if isinstance(m, Gauge)},
        "distribution_count": {n: m.count for n, m in metrics
                               if isinstance(m, LatencyStats)},
    } == ORACLE[name, kind]
