"""Tracing must be observation-only, and free when it is off.

The contract the chaos battery relies on: ``Tracer.signature()`` hashes
every counter and the fault timeline, so if tracing changed one event's
timing or minted one counter differently, a golden seed would drift.
``tests/chaos/test_golden_table.py`` asserts exactly that for every
golden (scenario, libOS kind) cell: each is run with tracing off and on
against one pinned signature.  What is left here are the two guards
around it: a traced world really records, and an untraced one never so
much as calls the recording half of the tracer.
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.sim.trace import Tracer
from repro.telemetry import Gauge, Span, chrome_trace_events
from repro.testing import GOLDEN_SCENARIOS, run_scenario


def test_telemetry_run_actually_records():
    """Guard against the on-run silently running with tracing off."""
    from repro.testbed import make_dpdk_libos_pair
    from repro.apps.echo import demi_echo_client, demi_echo_server

    world, client, server = make_dpdk_libos_pair(telemetry=True)
    world.sim.spawn(demi_echo_server(server, port=7, max_requests=3))
    proc = world.sim.spawn(
        demi_echo_client(client, "10.0.0.2", [b"x" * 64] * 3, port=7))
    world.sim.run_until_complete(proc)
    t = world.tracer
    assert t.tracing
    cats = {s.cat for s in t.spans}
    assert {"libos", "netstack", "device"} <= cats
    # The qtoken-lifetime distribution saw the pushes and pops.
    lifetimes = [m for n, m in t.metrics.items()
                 if n.endswith("qtoken_lifetime_ns")]
    assert lifetimes and any(d.count for d in lifetimes)


@pytest.mark.parametrize("name,kind", [("echo", "dpdk"), ("kv", "posix"),
                                       ("storage", "spdk"),
                                       ("crash-mid-stream", "rdma")])
def test_untraced_run_never_touches_the_tracing_half(name, kind, monkeypatch):
    """Off means off: with the switch unset no span, gauge or
    distribution is made and no method of one is called - every site
    guards on ``tracer.tracing`` before it does anything."""
    def boom(*_args, **_kw):
        raise AssertionError("tracing API reached with tracing off")

    for cls, method in ((Tracer, "span"), (Tracer, "gauge"),
                        (Tracer, "distribution"), (Span, "end"),
                        (Gauge, "set")):
        monkeypatch.setattr(cls, method, boom)
    plan = None if name in GOLDEN_SCENARIOS else FaultPlan(seed=42)
    result = run_scenario(name, kind, plan=plan).require_ok()
    tracer = result.world.tracer
    assert not tracer.tracing
    assert tracer.spans == [] and tracer.metrics == {}


def test_a_traced_chaos_run_carries_its_fault_timeline():
    """One registry: the faults a plan injected sit in the same trace as
    the spans they stalled, as instants on the ``faults`` track."""
    result = run_scenario("partition-heal", "dpdk",
                          telemetry=True).require_ok()
    tracer = result.world.tracer
    assert tracer.events
    instants = [e for e in chrome_trace_events(tracer) if e["ph"] == "i"]
    assert [(e["name"], e["args"]["detail"]) for e in instants] == [
        (event, detail) for _now, event, detail in tracer.events]
    # A fault-free run's trace has no such track.
    quiet = run_scenario("echo", "dpdk", plan=FaultPlan(seed=42),
                         telemetry=True).world.tracer
    assert not any(e["ph"] == "i" or e["args"].get("name") == "faults"
                   for e in chrome_trace_events(quiet))
