"""Telemetry must be observation-only: enabling it cannot move the sim.

The contract the chaos battery relies on: ``Tracer.signature()`` hashes
every counter and the fault timeline, so if attaching telemetry changed
one event's timing or minted one counter differently, a golden seed
would drift.  ``tests/chaos/test_golden_table.py`` asserts exactly that
for every golden (scenario, libOS kind) cell: each is run with telemetry
off and on against one pinned signature.  What is left here is the
guard that a telemetry-on world really records.
"""


def test_telemetry_run_actually_records():
    """Guard against the on-run silently running with telemetry off."""
    from repro.testbed import make_dpdk_libos_pair
    from repro.apps.echo import demi_echo_client, demi_echo_server

    world, client, server = make_dpdk_libos_pair(telemetry=True)
    world.sim.spawn(demi_echo_server(server, port=7, max_requests=3))
    proc = world.sim.spawn(
        demi_echo_client(client, "10.0.0.2", [b"x" * 64] * 3, port=7))
    world.sim.run_until_complete(proc)
    t = world.telemetry
    assert t.enabled
    cats = {s.cat for s in t.spans}
    assert {"libos", "netstack", "device"} <= cats
    # The qtoken-lifetime histogram saw the pushes and pops.
    lifetimes = [m for n, m in t.metrics.items()
                 if n.endswith("qtoken_lifetime_ns")]
    assert lifetimes and any(h.count for h in lifetimes)
