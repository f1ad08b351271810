"""Tests for the network fabric."""

import pytest

from repro.sim.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.sim.fabric import BROADCAST_ADDR, Fabric
from repro.sim.rand import Rng


def make_fabric(drop_rate=0.0):
    sim = Simulator()
    fabric = Fabric(sim, DEFAULT_COSTS, rng=Rng(1), drop_rate=drop_rate)
    return sim, fabric


def test_point_to_point_delivery():
    sim, fabric = make_fabric()
    got = []
    fabric.attach("a", lambda f: got.append((sim.now, f)))
    fabric.attach("b", lambda f: got.append((sim.now, f)))
    fabric.transmit("a", "b", "hello", nbytes=100)
    sim.run()
    assert len(got) == 1
    when, frame = got[0]
    assert frame == "hello"
    assert when == DEFAULT_COSTS.wire_ns(100)


def test_unknown_destination_dropped():
    sim, fabric = make_fabric()
    fabric.attach("a", lambda f: None)
    fabric.transmit("a", "nowhere", "x", nbytes=10)
    sim.run()
    assert fabric.tracer.get("fabric.unknown_dst_frames") == 1


def test_broadcast_reaches_everyone_but_sender():
    sim, fabric = make_fabric()
    got = {"a": [], "b": [], "c": []}
    for name in got:
        fabric.attach(name, (lambda n: (lambda f: got[n].append(f)))(name))
    fabric.transmit("a", BROADCAST_ADDR, "arp", nbytes=60)
    sim.run()
    assert got["a"] == []
    assert got["b"] == ["arp"]
    assert got["c"] == ["arp"]


def test_egress_serialization_queues_frames():
    sim, fabric = make_fabric()
    arrivals = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", lambda f: arrivals.append(sim.now))
    nbytes = 10000
    fabric.transmit("a", "b", 1, nbytes)
    fabric.transmit("a", "b", 2, nbytes)
    sim.run()
    serialize = int(nbytes * DEFAULT_COSTS.link_ns_per_byte)
    assert arrivals[0] == serialize + DEFAULT_COSTS.link_latency_ns
    # Second frame waits for the first to finish serializing.
    assert arrivals[1] == 2 * serialize + DEFAULT_COSTS.link_latency_ns


def test_duplicate_attach_rejected():
    _, fabric = make_fabric()
    fabric.attach("a", lambda f: None)
    with pytest.raises(ValueError):
        fabric.attach("a", lambda f: None)


def test_attach_at_broadcast_rejected():
    _, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.attach(BROADCAST_ADDR, lambda f: None)


def test_transmit_from_unattached_port_rejected():
    _, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.transmit("ghost", "b", "x", 1)


def test_loss_injection_drops_some_frames():
    sim, fabric = make_fabric(drop_rate=0.5)
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", lambda f: got.append(f))
    for i in range(200):
        fabric.transmit("a", "b", i, 100)
    sim.run()
    dropped = fabric.tracer.get("fabric.dropped_frames")
    assert dropped > 0
    assert len(got) + dropped == 200
    # Roughly half should drop with a fair seed.
    assert 50 < dropped < 150


def test_frame_and_byte_counters():
    sim, fabric = make_fabric()
    got = []
    fabric.attach("a", lambda f: None)
    fabric.attach("b", got.append)
    fabric.transmit("a", "b", "x", nbytes=500)
    sim.run()
    assert got == ["x"]
    counters = fabric.counters
    assert (counters.tx_frames, counters.tx_bytes, counters.rx_frames) \
        == (1, 500, 1)
