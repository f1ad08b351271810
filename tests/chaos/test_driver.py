"""The scenario driver itself: one loop, one policy, tables for the rest.

``run_scenario`` is the only way a workload meets a fault plan, so what
used to differ between eight hand-written runners is now policy worth
pinning: what happens to a run that does not finish, what a bare
workload name means, where plan names resolve.
"""

import re

import pytest

from repro.sim.faults import FaultPlan
from repro.testing import (GOLDEN_SCENARIOS, WORKLOADS, golden_plan,
                           named_plans, plan_by_name, run_scenario)

MS = 1_000_000


# ---------------------------------------------------------------------------
# One policy for runs that do not finish
# ---------------------------------------------------------------------------

def test_a_hang_is_recorded_and_the_undrained_checks_still_run():
    # The partition outlives the 5 ms limit, so the client is still
    # retransmitting SYNs when the driver gives up on it.
    plan = FaultPlan(seed=99).partition(None, None, 0, 10_000 * MS)
    result = run_scenario("echo", "dpdk", plan=plan, limit_ns=5 * MS)
    assert not result.ok
    hangs = [f for f in result.failures if "did not finish" in f]
    assert len(hangs) == 1
    # The world is undrained, but the qtoken identity holds and no DMA
    # fault fired: the hang is the only thing reported.
    assert result.failures == hangs
    assert result.data["finished_at"] > 5 * MS  # it still quiesced
    # The repro line alone replays the run.
    text = re.search(r"plan=(\{.*\})", result.repro_line()).group(1)
    replayed = run_scenario("echo", "dpdk", plan=FaultPlan.from_json(text),
                            limit_ns=5 * MS)
    assert replayed.signature == result.signature
    assert replayed.failures == result.failures


def test_a_hang_still_stops_the_server():
    plan = FaultPlan(seed=98).partition(None, None, 0, 10_000 * MS)
    result = run_scenario("kv", "posix", plan=plan, limit_ns=5 * MS)
    assert [f for f in result.failures if "did not finish" in f]
    assert not [f for f in result.failures if "failed to stop" in f]
    assert not [f for f in result.failures if "qtoken leak" in f]


# ---------------------------------------------------------------------------
# Names: golden rows, bare workloads, plans
# ---------------------------------------------------------------------------

def test_every_golden_row_names_a_workload_it_can_run_on():
    for name, row in GOLDEN_SCENARIOS.items():
        workload = WORKLOADS[row["workload"]]
        assert set(row["kinds"]) <= set(workload["kinds"]), name
        for kind in row["kinds"]:
            assert isinstance(row["plan"](kind), FaultPlan)


def test_a_bare_workload_name_runs_under_a_given_plan():
    result = run_scenario("kv-concurrent", "posix", plan=FaultPlan(seed=3),
                          n_clients=3, n_ops=10).require_ok()
    assert result.name == "kv-concurrent"
    assert result.data["clients"] == 3
    assert result.data["served"] == 30
    assert result.world.tracer.signature() == result.signature


def test_a_bare_workload_name_needs_a_plan():
    with pytest.raises(KeyError):
        run_scenario("echo", "dpdk")


def test_unknown_names_kinds_and_keywords_are_rejected():
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario", "dpdk")
    with pytest.raises(ValueError):
        run_scenario("slow-nvme", "dpdk")
    with pytest.raises(ValueError):
        run_scenario("storage", "rdma", plan=FaultPlan(seed=1))
    with pytest.raises(TypeError):
        run_scenario("handshake-loss", "dpdk", n_mesages=3)


def test_plans_resolve_by_name_next_to_the_table():
    assert named_plans() == tuple(sorted(GOLDEN_SCENARIOS) + ["none"])
    assert plan_by_name("none").to_dict() == FaultPlan(seed=1).to_dict()
    assert (plan_by_name("none", seed=5).to_dict()
            == FaultPlan(seed=5).to_dict())
    pinned = golden_plan("partition-heal", "rdma")
    assert (plan_by_name("partition-heal", kind="rdma").to_dict()
            == pinned.to_dict())
    reseeded = plan_by_name("partition-heal", kind="rdma", seed=77)
    assert reseeded.seed == 77
    assert reseeded.events == pinned.events
    with pytest.raises(KeyError):
        plan_by_name("no-such-plan")


# ---------------------------------------------------------------------------
# Phases, and worlds with more than one libOS on a host
# ---------------------------------------------------------------------------

def test_a_phase_joins_before_the_next_one_spawns(monkeypatch):
    # The open-loop rows preload their keys in a phase of its own: the
    # workload is resumed with a phase's return values the moment its
    # last leg joins, spawns the next phase then, and its own check runs
    # only after the bare yield's stop / quiesce.
    seen = []

    def two_phases(run):
        def leg(label, ns):
            yield run.sim.timeout(ns)
            seen.append((label, run.sim.now))
            return label

        first = yield [run.sim.spawn(leg("preload", 5_000))]
        seen.append(("resumed", run.sim.now, first))
        second = yield [run.sim.spawn(leg("measured-a", 3_000)),
                        run.sim.spawn(leg("measured-b", 1_000))]
        seen.append(("resumed", run.sim.now, second))
        yield
        run.data["checked_at"] = run.sim.now

    monkeypatch.setitem(WORKLOADS, "two-phases",
                        {"kinds": ("dpdk",), "legs": two_phases})
    result = run_scenario("two-phases", "dpdk",
                          plan=FaultPlan(seed=1)).require_ok()
    assert seen == [("preload", 5_000),
                    ("resumed", 5_000, ["preload"]),
                    ("measured-b", 6_000),
                    ("measured-a", 8_000),
                    ("resumed", 8_000, ["measured-a", "measured-b"])]
    assert result.data["checked_at"] == result.data["finished_at"] > 8_000


def test_every_shard_on_the_one_server_host_is_checked(monkeypatch):
    # N shards are N libOSes on the host named "server": the checker
    # walks libOSes, not host names.
    def stray_tokens(run):
        for shard in run.tier.shards:
            shard.libos.qtokens.create()  # never completes, never waited
        yield

    monkeypatch.setitem(WORKLOADS, "stray-tokens",
                        {"kinds": ("dpdk",), "legs": stray_tokens,
                         "world": "sharded", "shape": ("cores",)})
    result = run_scenario("stray-tokens", "dpdk", plan=FaultPlan(seed=1),
                          cores=3)
    assert [f.split()[0] for f in result.failures] == [
        "server.shard0", "server.shard1", "server.shard2"]
    assert all("1 qtokens still in flight" in f for f in result.failures)
