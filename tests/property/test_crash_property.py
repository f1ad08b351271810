"""Property test: the crash-reclaim invariant holds at *every* instant.

The golden crash scenarios pin one kill time per libOS kind; here
hypothesis sweeps ``proc_crash(at)`` uniformly over the whole workload
horizon - before the connection exists, mid-handshake, mid-stream, and
after the last echo - and demands the same end state every time: no
live buffers, no IOMMU mappings, empty qd/fd tables, a consistent
qtoken ledger.  Timing/outcome assertions are relaxed (``strict=False``)
because a pre-connect or post-stream kill legitimately changes what the
surviving peer observes; the reclamation invariant itself never relaxes.

Iteration count: ``CRASH_PROPERTY_EXAMPLES`` (default 30; each example
is a full two-host simulation).
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


class TestCrashAnywhere:
    @given(kind=st.sampled_from(("dpdk", "posix", "rdma")),
           seed=st.integers(0, 2**32 - 1),
           at=st.integers(0, HORIZON_NS))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_reclaim_invariant_holds_at_any_crash_time(self, kind, seed, at):
        plan = FaultPlan(seed=seed).proc_crash("client", at)
        result = run_scenario(
            "crash-echo", kind, plan=plan, n_messages=80,
            idle_timeout_ns=2 * MS, strict=False)
        assert result.ok, result.repro_line() + "\n" + "\n".join(
            result.failures)

    @given(at=st.integers(0, 2 * MS))
    @settings(max_examples=max(5, EXAMPLES // 3), deadline=None,
              derandomize=True)
    def test_replays_identically_from_seed_and_plan(self, at):
        plan = FaultPlan(seed=at + 1).proc_crash("client", at)
        first = run_scenario("crash-echo", "dpdk", plan=plan, n_messages=80,
                             strict=False)
        second = run_scenario("crash-echo", "dpdk", plan=plan, n_messages=80,
                              strict=False)
        assert first.signature == second.signature
        assert first.counters == second.counters
