"""The tracing-on oracle: what three traced runs record, pinned.

Each run is ``run_scenario(workload, kind, plan=FaultPlan(seed=42),
telemetry=True)``; ``tests/golden/traced_runs.json`` holds its span
count, the per-category ``[count, total_ns]`` of
``repro.telemetry.snapshot``, each gauge's maximum and each
distribution's sample count.  A change to where a span starts or ends,
to which tokens get one, or to what a site samples moves a number there;
a refactoring of the registry moves none.

Two things are left out, on purpose: a distribution's percentiles (only
its sample count is pinned), and a gauge nobody ever set (every
``queue_depth`` in these runs: each pop was posted before its element
arrived), which is made on first use and so is absent.
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.sim.trace import LatencyStats
from repro.telemetry import Gauge, snapshot
from repro.testing import run_scenario

from .. import golden

RUNS = [("echo", "dpdk"), ("kv", "posix"), ("storage", "spdk")]


@pytest.mark.parametrize("name,kind", RUNS,
                         ids=["%s-%s" % run for run in RUNS])
def test_traced_run_records_what_it_always_did(name, kind):
    result = run_scenario(name, kind, plan=FaultPlan(seed=42),
                          telemetry=True).require_ok()
    tracer = result.world.tracer
    snap = snapshot(tracer)
    metrics = tracer.metrics.items()
    golden.check("traced_runs", "%s/%s" % (name, kind), {
        "span_count": snap["span_count"],
        "by_category": {cat: [row["count"], row["total_ns"]]
                        for cat, row in snap["spans_by_category"].items()},
        "gauge_max": {n: m.maximum for n, m in metrics
                      if isinstance(m, Gauge)},
        "distribution_count": {n: m.count for n, m in metrics
                               if isinstance(m, LatencyStats)},
    })
