"""Tests for the fabric's per-destination fault hook and the fault plan."""

import pytest

from repro.sim.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.sim.fabric import BROADCAST_ADDR, Fabric
from repro.sim.faults import (DEVICE_KINDS, NETWORK_KINDS, FaultEvent,
                              FaultInjector, FaultPlan)
from repro.sim.rand import Rng
from repro.sim.trace import Tracer


def make_fabric(drop_rate=0.0, seed=1):
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_COSTS, rng=Rng(seed), drop_rate=drop_rate)
    return sim, fabric


# ---------------------------------------------------------------------------
# Per-destination drops (satellite 1)
# ---------------------------------------------------------------------------

def test_dropped_frames_counter():
    sim, fabric = make_fabric(drop_rate=1.0)
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", got.append)
    fabric.transmit("a", "b", "x", 100)
    sim.run()
    assert got == []
    assert fabric.tracer.get("fabric.dropped_frames") == 1


def test_broadcast_drop_decisions_are_per_destination():
    # With a fair coin per destination, a broadcast to many ports must
    # sometimes reach some ports and not others - the old implementation
    # made one decision for the whole broadcast.
    sim, fabric = make_fabric(drop_rate=0.5, seed=7)
    got = {name: [] for name in "abcdef"}
    for name in got:
        fabric.attach(name, (lambda n: (lambda f: got[n].append(f)))(name))
    for i in range(50):
        fabric.transmit("a", BROADCAST_ADDR, i, 60)
    sim.run()
    received = {name: len(frames) for name, frames in got.items()
                if name != "a"}
    # Not all destinations saw the same subset of the 50 broadcasts.
    assert len(set(received.values())) > 1
    # one drop decision per destination: each copy arrives or is counted
    dropped = fabric.counters.dropped_frames
    assert sum(received.values()) + dropped == 50 * 5


def test_fault_filter_can_drop():
    sim, fabric = make_fabric()
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", lambda f: got.append(f))
    fabric.fault_filter = lambda src, dst, frame, nbytes: []
    fabric.transmit("a", "b", "x", 100)
    sim.run()
    assert got == []
    assert fabric.counters.dropped_frames == 1


def test_fault_filter_none_means_untouched():
    sim, fabric = make_fabric()
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", lambda f: got.append((sim.now, f)))
    fabric.fault_filter = lambda src, dst, frame, nbytes: None
    fabric.transmit("a", "b", "x", 100)
    sim.run()
    assert got == [(DEFAULT_COSTS.wire_ns(100), "x")]


def test_fault_filter_duplicates_and_delays():
    sim, fabric = make_fabric()
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", lambda f: got.append((sim.now, f)))
    fabric.fault_filter = lambda src, dst, frame, nbytes: [
        (0, frame), (5_000, frame + "-dup")]
    fabric.transmit("a", "b", "x", 100)
    sim.run()
    base = DEFAULT_COSTS.wire_ns(100)
    assert got == [(base, "x"), (base + 5_000, "x-dup")]


def test_fault_filter_sees_each_broadcast_destination():
    sim, fabric = make_fabric()
    seen = []
    for name in "abc":
        fabric.attach(name, lambda f: None)

    def spy(src, dst, frame, nbytes):
        seen.append((src, dst))
        return None

    fabric.fault_filter = spy
    fabric.transmit("a", BROADCAST_ADDR, "arp", 60)
    sim.run()
    assert sorted(seen) == [("a", "b"), ("a", "c")]


# ---------------------------------------------------------------------------
# FaultEvent / FaultPlan
# ---------------------------------------------------------------------------

def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent("not-a-kind", 0, 10)
    with pytest.raises(ValueError):
        FaultEvent("loss", 10, 10)  # empty window
    with pytest.raises(ValueError):
        FaultEvent("loss", 0, 10, rate=1.5)


def test_fault_event_matching():
    e = FaultEvent("loss", 0, 10, src="a")
    assert e.matches_link("a", "b")
    assert not e.matches_link("b", "a")
    assert FaultEvent("loss", 0, 10).matches_link("x", "y")
    d = FaultEvent("nic_stall", 0, 10, extra_ns=5, device="dpdk0")
    assert d.matches_device("server.dpdk0")
    assert d.matches_device("dpdk0.rxq")
    assert not d.matches_device("server.eth0")


def test_fault_event_window():
    e = FaultEvent("loss", 100, 200)
    assert not e.active(99)
    assert e.active(100)
    assert e.active(199)
    assert not e.active(200)


def test_plan_roundtrips_through_json():
    plan = (FaultPlan(seed=9)
            .loss(0, 100, rate=0.5)
            .partition("a", "b", 50, 150)
            .nvme_slow("nvme0", 0, 1000, factor=20.0)
            .nic_ring_clamp("dpdk0", 10, 20, limit=4))
    again = FaultPlan.from_json(plan.to_json())
    assert again.to_dict() == plan.to_dict()
    assert again.seed == 9
    assert len(again.events) == 5  # partition adds two directional events


def test_plan_event_partitions_by_kind():
    plan = (FaultPlan()
            .loss(0, 10)
            .nic_stall("dpdk0", 0, 10, extra_ns=5)
            .nvme_slow("nvme0", 0, 10))
    assert [e.kind for e in plan.network_events()] == ["loss"]
    assert [e.kind for e in plan.device_events("h.nvme0")] == ["nvme_slow"]
    assert [e.kind for e in plan.device_events("h.dpdk0")] == ["nic_stall"]
    assert set(NETWORK_KINDS) & set(DEVICE_KINDS) == set()


# ---------------------------------------------------------------------------
# FaultInjector.frame_fate
# ---------------------------------------------------------------------------

def make_injector(plan):
    sim, fabric = make_fabric()
    tracer = Tracer()
    injector = FaultInjector(plan, tracer=tracer)
    injector.attach_fabric(fabric)
    return sim, fabric, tracer, injector


def test_partition_drops_everything_counted_once():
    # A wildcard partition is stored as two events that both match every
    # frame; each frame must still count exactly once.
    plan = FaultPlan().partition(None, None, 0, 1000)
    sim, fabric, tracer, injector = make_injector(plan)
    for _ in range(5):
        assert injector.frame_fate("a", "b", b"x" * 60, 60) == []
    assert tracer.get("fault.partitioned_frames") == 5


def test_loss_outside_window_untouched():
    plan = FaultPlan().loss(1000, 2000, rate=1.0)
    sim, fabric, tracer, injector = make_injector(plan)
    assert injector.frame_fate("a", "b", b"x", 1) is None
    assert tracer.get("fault.lost_frames") == 0


def test_corrupt_flips_one_bit_past_ethernet_header():
    plan = FaultPlan().corrupt(0, 1000, rate=1.0)
    sim, fabric, tracer, injector = make_injector(plan)
    frame = bytes(range(64))
    fate = injector.frame_fate("a", "b", frame, 64)
    assert len(fate) == 1
    (_extra, mangled) = fate[0]
    assert mangled != frame
    assert mangled[:14] == frame[:14]  # ethernet header untouched
    diff = [i for i in range(64) if mangled[i] != frame[i]]
    assert len(diff) == 1
    assert bin(mangled[diff[0]] ^ frame[diff[0]]).count("1") == 1


def test_corrupt_non_byte_frame_drops():
    plan = FaultPlan().corrupt(0, 1000, rate=1.0)
    sim, fabric, tracer, injector = make_injector(plan)
    assert injector.frame_fate("a", "b", object(), 64) == []
    assert tracer.get("fault.corrupt_dropped_frames") == 1


def test_duplicate_returns_two_spaced_deliveries():
    plan = FaultPlan().duplicate(0, 1000, rate=1.0)
    sim, fabric, tracer, injector = make_injector(plan)
    fate = injector.frame_fate("a", "b", b"x" * 200, 200)
    assert len(fate) == 2
    assert fate[0][0] == 0
    assert fate[1][0] >= 100
    assert fate[0][1] == fate[1][1] == b"x" * 200


def test_latency_event_delays_deterministically():
    plan = FaultPlan().latency(0, 1000, extra_ns=7_777)
    sim, fabric, tracer, injector = make_injector(plan)
    assert injector.frame_fate("a", "b", b"x", 1) == [(7_777, b"x")]


def test_link_filter_scopes_faults():
    plan = FaultPlan().partition("a", "b", 0, 1000)
    sim, fabric, tracer, injector = make_injector(plan)
    assert injector.frame_fate("a", "b", b"x", 1) == []
    assert injector.frame_fate("b", "a", b"x", 1) == []
    assert injector.frame_fate("a", "c", b"x", 1) is None


def test_same_plan_same_decisions():
    plan_json = (FaultPlan(seed=77)
                 .loss(0, 10_000, rate=0.5)
                 .reorder(0, 10_000, rate=0.5, jitter_ns=500)
                 .to_json())

    def decisions():
        injector = make_injector(FaultPlan.from_json(plan_json))[3]
        return [injector.frame_fate("a", "b", b"x" * 60, 60)
                for _ in range(50)]

    assert decisions() == decisions()


def test_injector_installs_on_world():
    from repro.testbed import make_spdk_libos

    world, libos = make_spdk_libos()
    plan = FaultPlan().nvme_slow("nvme0", 0, 1000, factor=2.0)
    injector = world.install_faults(plan)
    assert world.injector is injector
    assert world.fabric.fault_filter == injector.frame_fate
    assert libos.nvme.faults is not None
    assert libos.nvme.faults.io_factor(500) == 2.0
    assert libos.nvme.faults.io_factor(1500) == 1.0


@pytest.mark.parametrize("plan", [
    FaultPlan().nic_link_flap("client.eth0", 1000, down_ns=500),
    FaultPlan().nic_stall("server.rdma0", 0, 1000, extra_ns=100),
    FaultPlan().nvme_slow("nvme0", 0, 1000, factor=2.0),
], ids=["link-flap", "stall", "nvme-slow"])
def test_a_device_fault_on_no_device_of_the_world_is_refused(plan):
    from repro.testbed import make_dpdk_libos_pair

    world, _client, _server = make_dpdk_libos_pair()
    event = plan.events[0]
    with pytest.raises(ValueError) as err:
        world.install_faults(plan)
    message = str(err.value)
    assert event.kind in message and repr(event.device) in message
    # ... and it names the devices the world does have
    assert "client.dpdk0, server.dpdk0" in message


def test_rng_fork_named_is_stable_and_distinct():
    a = Rng(1).fork_named("fault-injector")
    b = Rng(1).fork_named("fault-injector")
    c = Rng(1).fork_named("workload")
    seq = [a.randint(0, 1 << 30) for _ in range(8)]
    assert seq == [b.randint(0, 1 << 30) for _ in range(8)]
    assert seq != [c.randint(0, 1 << 30) for _ in range(8)]


def test_tracer_signature_tracks_counters_and_events():
    t1, t2 = Tracer(), Tracer()
    for t in (t1, t2):
        t.keep_events = True
        t.scope("").count("x", 3)
        t.record(10, "e", "detail")
    assert t1.signature() == t2.signature()
    t2.scope("").count("x")
    assert t1.signature() != t2.signature()
