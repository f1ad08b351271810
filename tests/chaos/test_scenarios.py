"""The chaos battery: golden-seed fault scenarios with pinned traces.

Each golden test runs one :data:`repro.testing.GOLDEN_SCENARIOS` entry
on its canonical libOS kind and asserts the *exact* fault and recovery
counters the seeded run produces - any change to the fault injector's
decision stream, the fabric's delivery order, or a transport's recovery
behaviour shows up here as a diff against known-good numbers.

The cross-libOS battery then sweeps every scenario across every kind it
supports, checking only the invariants (delivery, qtoken lifecycle,
wake-ups, DMA safety) - behaviour may differ per transport, correctness
may not.
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.testing import (GOLDEN_SCENARIOS, check_reproducible, golden_plan,
                           run_scenario)


def run_golden(name, kind):
    return run_scenario(name, kind).require_ok()


# ---------------------------------------------------------------------------
# Golden scenarios: pinned counters on the canonical kind
# ---------------------------------------------------------------------------

def test_golden_handshake_loss():
    # A total blackout eats the SYN and its first retransmit; the
    # exponential-backoff retry at ~300us escapes the window.
    r = run_golden("handshake-loss", "dpdk")
    assert r.counters.get("fault.lost_frames", 0) == 3
    assert r.counters.get("client.catnip.stack.tcp_retransmits", 0) == 2
    assert r.data["served"] == 20


def test_golden_handshake_loss_rdma():
    # The rdmacm rendezvous is off-fabric, so the burst hits the first
    # data exchange instead; go-back-N resends until the window heals.
    r = run_golden("handshake-loss", "rdma")
    assert r.counters.get("fault.lost_frames", 0) == 4
    assert r.counters.get("client.rdma0.retransmits", 0) == 4


def test_golden_reorder_dup_storm():
    # Heavy jitter + duplication across the whole KV run: TCP absorbs
    # both with at most a couple of retransmits.
    r = run_golden("reorder-dup-storm", "dpdk")
    assert r.counters.get("fault.reordered_frames", 0) == 56
    assert r.counters.get("fault.duplicated_frames", 0) == 32
    assert r.counters.get("client.catnip.stack.tcp_fast_retransmits", 0) == 0
    assert r.counters.get("client.catnip.stack.tcp_retransmits", 0) == 1
    assert r.data["served"] == 40


def test_golden_partition_heal():
    # A 1ms full partition mid-workload: both sides back off and
    # retransmit their way out once it heals.
    r = run_golden("partition-heal", "dpdk")
    assert r.counters.get("fault.partitioned_frames", 0) == 7
    assert r.counters.get("client.catnip.stack.tcp_retransmits", 0) == 5
    assert r.counters.get("server.catnip.stack.tcp_retransmits", 0) == 4
    assert r.data["served"] == 40


def test_golden_rx_ring_overflow():
    # The server NIC's RX ring collapses to zero for 300us: inbound
    # frames die at the ring (not the fabric) and TCP recovers.
    r = run_golden("rx-ring-overflow", "dpdk")
    assert r.counters.get("server.dpdk0.rx_ring_drops", 0) == 4
    assert r.counters.get("fault.ring_clamped_checks", 0) == 4
    assert r.counters.get("client.catnip.stack.tcp_retransmits", 0) == 3
    assert r.counters.get("fault.lost_frames", 0) == 0  # fabric never dropped


def test_golden_slow_nvme():
    # A 40x slow-flash window: appends crawl through it, everything
    # reads back intact afterwards.
    r = run_golden("slow-nvme", "spdk")
    assert r.counters.get("fault.slow_ios", 0) == 2
    assert r.counters.get("h.catfish.file_appends", 0) == 12
    assert r.data["flushed"] > 0


def test_golden_corruption_storm():
    # Random bit flips past the ethernet header: every mangled frame is
    # caught by the IPv4 header checksum (rx_malformed) or the TCP
    # checksum (bad_checksum_drops) - none reach the application.
    r = run_golden("corruption-storm", "dpdk")
    assert r.counters.get("fault.corrupted_frames", 0) == 12
    caught = (r.counters.get("client.catnip.stack.tcp_bad_checksum_drops", 0)
              + r.counters.get("server.catnip.stack.tcp_bad_checksum_drops", 0)
              + r.counters.get("client.catnip.stack.rx_malformed", 0)
              + r.counters.get("server.catnip.stack.rx_malformed", 0))
    assert caught == r.counters.get("fault.corrupted_frames", 0)
    assert r.data["served"] == 20  # and the echo stream was exact


# ---------------------------------------------------------------------------
# Cross-libOS battery: every scenario on every kind it supports
# ---------------------------------------------------------------------------

BATTERY = [(name, kind)
           for name, spec in GOLDEN_SCENARIOS.items()
           for kind in spec["kinds"]]


@pytest.mark.parametrize("name,kind", BATTERY,
                         ids=["%s-%s" % pair for pair in BATTERY])
def test_battery_invariants(name, kind):
    r = run_golden(name, kind)
    assert r.ok
    # Every scenario actually exercised its faults (except rdma under
    # corruption, where mangled frames drop before reaching a counter
    # we pin here).
    assert any(v for k, v in r.counters.items()
               if k.startswith("fault.")), "plan never fired"


# ---------------------------------------------------------------------------
# Reproducibility: the subsystem's core promise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kind", [
    ("reorder-dup-storm", "dpdk"),
    ("partition-heal", "rdma"),
    ("slow-nvme", "spdk"),
])
def test_same_seed_same_trace(name, kind):
    first, second = check_reproducible(run_scenario, name, kind)
    assert first.signature == second.signature
    assert first.counters == second.counters
    assert first.events == second.events


def test_repro_line_replays_the_run():
    # The printed (seed, plan) alone must reproduce the identical trace:
    # round-trip the plan through its JSON form and re-run.
    original = run_scenario("corruption-storm", "dpdk")
    replayed_plan = FaultPlan.from_json(original.plan.to_json())
    assert (replayed_plan.to_dict()
            == golden_plan("corruption-storm", "dpdk").to_dict())
    replayed = run_scenario("corruption-storm", "dpdk", plan=replayed_plan)
    assert replayed.signature == original.signature


def test_failures_carry_the_repro_line():
    # An impossible expectation must fail loudly with the replay recipe.
    r = run_scenario("handshake-loss", "dpdk")
    r.failures.append("synthetic violation (test)")
    with pytest.raises(AssertionError) as excinfo:
        r.require_ok()
    message = str(excinfo.value)
    assert "synthetic violation" in message
    assert "seed=%d" % r.plan.seed in message
    assert r.plan.to_json() in message
