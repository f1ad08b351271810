"""Property test: the crash-reclaim invariant holds at *every* instant.

The golden crash scenarios pin one kill time per libOS kind; here
hypothesis sweeps ``proc_crash(at)`` uniformly over the whole workload
horizon of the rows that ship - the ``echo`` client before the
connection exists, mid-handshake, mid-stream and after the last echo;
the ``storage`` writer on SPDK mid-append, mid-fsync, mid-read-back
(all within its first ~225 us) and after it closed its queues - and
demands the same end state every time: no live buffers, no IOMMU
mappings, no NVMe command in flight, empty qd/fd tables, a consistent
qtoken ledger.  The echo sweep relaxes the
timing/outcome assertions (``strict=False``) because a pre-connect or
post-stream kill legitimately changes what the surviving peer observes;
the reclamation invariant itself never relaxes.

Iteration count: ``CRASH_PROPERTY_EXAMPLES`` (default 30; each example
is a full simulation).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import FaultPlan
from repro.testing import run_scenario

EXAMPLES = int(os.environ.get("CRASH_PROPERTY_EXAMPLES", "30"))

US = 1_000
MS = 1_000_000

#: sweep window: past the end of the slowest kind's 80-message stream
HORIZON_NS = 4 * MS
#: the storage sweep's window: well past the default writer's read-back
STORAGE_HORIZON_NS = 2 * MS


def _echo_under_crash(kind, plan, **params):
    return run_scenario("echo", kind, plan=plan, n_messages=80,
                        message_size=128, strict=False, **params)


class TestCrashAnywhere:
    @given(kind=st.sampled_from(("dpdk", "posix", "rdma")),
           seed=st.integers(0, 2**32 - 1),
           at=st.integers(0, HORIZON_NS))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_reclaim_invariant_holds_at_any_crash_time(self, kind, seed, at):
        plan = FaultPlan(seed=seed).proc_crash("client", at)
        result = _echo_under_crash(kind, plan, idle_timeout_ns=2 * MS)
        assert result.ok, result.repro_line() + "\n" + "\n".join(
            result.failures)

    @given(seed=st.integers(0, 2**32 - 1),
           at=st.integers(0, STORAGE_HORIZON_NS - 1))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_storage_reclaim_invariant_holds_at_any_crash_time(self, seed,
                                                               at):
        plan = FaultPlan(seed=seed).proc_crash("h", at)
        result = run_scenario("storage", "spdk", plan=plan)
        assert result.ok, result.repro_line() + "\n" + "\n".join(
            result.failures)

    @given(at=st.integers(0, 2 * MS))
    @settings(max_examples=max(5, EXAMPLES // 3), deadline=None,
              derandomize=True)
    def test_replays_identically_from_seed_and_plan(self, at):
        plan = FaultPlan(seed=at + 1).proc_crash("client", at)
        first = _echo_under_crash("dpdk", plan, idle_timeout_ns=5 * MS)
        second = _echo_under_crash("dpdk", plan, idle_timeout_ns=5 * MS)
        assert first.signature == second.signature
        assert first.counters == second.counters
