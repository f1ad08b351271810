"""Crash-point enumeration: a replica may die at *any* instant.

The ``replica-crash-*`` golden scenarios kill at one instant under three
seeds.  A simulated run is a pure function of its seed and costs a
fraction of a second, so here the kill is swept over **every distinct
time the engine scheduled anything** inside a window of the
``kv-replicated`` scenario, at each chain position: a fault-free dry run
records the times (``Simulator._schedule_at`` wrapped in the test, as
``tests/sim/test_call_budget.py`` counts events), then the same scenario
runs under ``proc_crash("replica<i>", t)`` and ``proc_crash(..., t + 1)``
for each - the plan's event is inserted before the workload's, so ``t``
is "before everything at that instant" and ``t + 1`` "after it".  Every
run must come back ``ok``: no acknowledged write lost, reads
linearizable, survivors converged with ``applied == len(log)`` (no
entry logged and stranded), the dead host reclaimed to
zero buffers and zero IOMMU mappings, and no exception out of the
simulator.  A failure prints the one-line repro, like the chaos
battery's.

Tier-1 sweeps three dense windows: the initial wiring (the rdmacm
rendezvous and both SYNC handshakes), one replicated PUT on warm
connections, from issue to ack, and - with two clients - two PUTs issued
in one instant, from issue to both acks: each link then has two WRITEs
in flight when a member dies, and the splice must replay what was lost
with them.  ``CRASH_POINTS_WINDOW_NS=60000:400000`` (CI) sweeps that
whole window instead, at the scenario's own size.

Found by this sweep at its first run, on the commit before it existed
(44 of 3 426 instants): a replica killed inside its SYNC handshake
double-freed its cells and aborted the simulation; a QP in mid-handshake
outlived its owner and the peer's next message DMA-faulted the dead
host; a push issued in the instant its owner died read freed memory
(docs/replication.md, docs/recovery.md).  One finding is recorded, not
fixed: :data:`UNWATCHED_HEAD` below.
"""

import os

import pytest

from repro.cluster.client import ReplicatedKvClient
from repro.rmem.ring import RingProducer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.telemetry import names
from repro.testing import run_scenario, scenarios

US = 1_000
MS = 1_000_000

SEED = 1201
#: chain 0 over three nodes is [replica0, replica1, replica2]
POSITIONS = ("replica0", "replica1", "replica2")

#: ``lo:hi`` in ns widens the sweep to every instant of that window at
#: the scenario's default size; unset, tier-1's three dense windows at
#: sizes that still hold PUTs on warm connections
WINDOW = os.environ.get("CRASH_POINTS_WINDOW_NS")
ONE_CLIENT = {"n_clients": 1, "n_ops": 4, "settle_ns": 200 * US}
#: both clients issue their first PUT on warm connections in one instant
TWO_CLIENTS = dict(ONE_CLIENT, n_clients=2)
#: the initial wiring ends when the last link is up, 64 769 ns in
WIRING_NS = (0, 64_800)

#: A head that dies before its successor's uplink is established (at
#: 63 614 ns in this scenario) is never declared dead: no peer holds a
#: lease on it yet and the client router's ``RetryBudgetExceeded`` reports
#: nothing to the directory, so these two are what such a run says.
#: Recorded under ROADMAP item 10; everything else - the reclaim, no
#: exception - is required of those instants too.
HEAD_WATCHED_FROM_NS = 63_614
UNWATCHED_HEAD = {"a replica died but the directory never failed over",
                  "no write was ever acknowledged - nothing was tested"}


@pytest.fixture(autouse=True)
def short_quiesce(monkeypatch):
    """The driver drains 20 ms of heartbeats after the legs join - nine
    tenths of a run's host time.  Every leg here ends with a settle and a
    read-back well after the kill, so 2 ms (100 heartbeats, 13 leases, 20
    teardown polls) drains as much as 20 would."""
    monkeypatch.setattr(scenarios, "QUIESCE_NS", 2 * MS)


def dry_run(params):
    """``(every distinct time the engine scheduled, (issue, ack) of every
    PUT, (time, ring WRITEs in flight on its link) at every post)`` of the
    fault-free run."""
    schedule_at, put = Simulator._schedule_at, ReplicatedKvClient.put
    post = RingProducer.post
    times, puts, posts = set(), [], []

    def recording_schedule_at(sim, when, fn, args=()):
        times.add(when)
        return schedule_at(sim, when, fn, args)

    def recording_put(client, key, value):
        issued = client.libos.sim.now
        yield from put(client, key, value)
        puts.append((issued, client.libos.sim.now))

    def recording_post(producer, payload):
        wr = yield from post(producer, payload)
        ring, qp = producer.ring, producer.ops.qp
        posts.append((producer.ops.sim.now, sum(
            1 for pkt, _retries, _epoch in qp.hw.inflight.values()
            if ring.base_addr <= pkt.raddr < ring.base_addr
            + ring.total_bytes)))
        return wr

    Simulator._schedule_at = recording_schedule_at
    ReplicatedKvClient.put = recording_put
    RingProducer.post = recording_post
    try:
        run_scenario("kv-replicated", "rdma", plan=FaultPlan(seed=SEED),
                     **params).require_ok()
    finally:
        Simulator._schedule_at, ReplicatedKvClient.put = schedule_at, put
        RingProducer.post = post
    return sorted(times), sorted(puts), posts


def sweeps():
    """``(scenario params, instants to kill at, whether a WRITE is in
    flight to the victim)`` of every sweep."""
    if WINDOW:
        lo, hi = (int(bound) for bound in WINDOW.split(":"))
        times, _puts, _posts = dry_run({})
        return [({}, [t for t in times if lo <= t < hi], False)]
    times, puts, _posts = dry_run(ONE_CLIENT)
    # Each client's first PUT opens its connections (~170 us): the first
    # quick one is the first on a warm path.
    issued, acked = next(put for put in puts if put[1] - put[0] < 20 * US)
    windows = [WIRING_NS, (issued, acked + 1)]
    one = [t for t in times if any(lo <= t < hi for lo, hi in windows)]
    times, puts, posts = dry_run(TWO_CLIENTS)
    issued = next(a for (a, ack), (b, _ack) in zip(puts, puts[1:])
                  if a == b and ack - a < 20 * US)
    acked = max(ack for at, ack in puts if at == issued)
    assert max(n for at, n in posts if issued <= at <= acked) >= 2, (
        "two PUTs issued in one instant never had two WRITEs in flight")
    two = [t for t in times if issued <= t < acked + 1]
    return [(ONE_CLIENT, one, False), (TWO_CLIENTS, two, True)]


def crash_at(host: str, at: int, params, in_flight: bool = False):
    """The failures of the run that kills *host* at *at*, and its repro.
    With *in_flight*, a survivor must also have counted a link fault: a
    WRITE to the victim failed, whether the forwarder's or a
    heartbeat's."""
    plan = FaultPlan(seed=SEED).proc_crash(host, at)
    try:
        result = run_scenario("kv-replicated", "rdma", plan=plan, **params)
    except Exception as err:  # out of the quiesce: the driver joins no leg
        return (["%s out of the simulator: %s" % (type(err).__name__, err)],
                "repro: scenario=kv-replicated kind=rdma seed=%d plan=%s"
                % (SEED, plan.to_json()))
    failures = set(result.failures)
    if in_flight and not sum(
            result.world.tracer.get("%s.%s" % (name, names.REPL_LINK_FAULTS))
            for name in POSITIONS):
        failures.add("no survivor counted a link fault")
    if host == POSITIONS[0] and at < HEAD_WATCHED_FROM_NS:
        failures -= UNWATCHED_HEAD
    return sorted(failures), result.repro_line()


def test_a_replica_may_die_at_any_instant():
    broken, runs = [], 0
    for params, times, in_flight in sweeps():
        assert len(times) >= 50, "the windows hold no PUT: %d" % len(times)
        for host in POSITIONS:
            for at in (t + after for t in times for after in (0, 1)):
                runs += 1
                failures, repro = crash_at(host, at, params, in_flight)
                if failures:
                    broken.append("(%r, %d): %s\n    %s"
                                  % (host, at, "; ".join(failures), repro))
    assert not broken, "%d of %d crash instants fail:\n%s" % (
        len(broken), runs, "\n".join(broken))
