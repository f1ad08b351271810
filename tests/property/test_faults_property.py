"""Property tests: random fault plans can never corrupt the byte stream.

Within each transport's retry budget (loss bursts at <= 30%, partitions
that heal, bounded jitter/duplication/corruption), a TCP-based libOS
must deliver exactly the bytes the application pushed - in order, once.
Any counter-example prints its ``(seed, plan)`` repro line, and
hypothesis shrinks the plan toward the minimal failing schedule.

Iteration count: ``FAULT_PROPERTY_EXAMPLES`` (default 50); CI's
non-blocking chaos job raises it.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.sim.fabric import Fabric
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan
from repro.sim.rand import Rng
from repro.testing import run_scenario

EXAMPLES = int(os.environ.get("FAULT_PROPERTY_EXAMPLES", "50"))

US = 1_000
MS = 1_000_000

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _window(draw, max_start, max_len, min_len=10 * US):
    start = draw(st.integers(0, max_start))
    return start, start + draw(st.integers(min_len, max_len))


@st.composite
def tcp_safe_plans(draw):
    """Plans inside TCP's recovery budget (6 SYN / 12 data retries)."""
    plan = FaultPlan(seed=draw(seeds))
    for _ in range(draw(st.integers(0, 2))):
        start, end = _window(draw, 1200 * US, 1 * MS)
        plan.loss(start, end,
                  rate=draw(st.floats(0.01, 0.3, allow_nan=False)))
    if draw(st.booleans()):
        start, end = _window(draw, 1200 * US, 500 * US)
        plan.reorder(start, end,
                     rate=draw(st.floats(0.05, 0.5, allow_nan=False)),
                     jitter_ns=draw(st.integers(1 * US, 30 * US)))
    if draw(st.booleans()):
        start, end = _window(draw, 1200 * US, 800 * US)
        plan.duplicate(start, end,
                       rate=draw(st.floats(0.05, 0.3, allow_nan=False)))
    if draw(st.booleans()):
        start, end = _window(draw, 1 * MS, 400 * US)
        plan.corrupt(start, end,
                     rate=draw(st.floats(0.05, 0.2, allow_nan=False)))
    if draw(st.booleans()):
        # Partitions always heal: duration well under the retry budget.
        start, end = _window(draw, 1 * MS, 800 * US, min_len=50 * US)
        plan.partition(None, None, start, end)
    return plan


@st.composite
def any_plans(draw):
    """Arbitrary valid plans (network + device events), for round-trips."""
    plan = FaultPlan(seed=draw(seeds))
    builders = (
        lambda s, e: plan.loss(s, e, rate=draw(st.floats(0, 1, allow_nan=False))),
        lambda s, e: plan.reorder(s, e, jitter_ns=draw(st.integers(1, MS))),
        lambda s, e: plan.duplicate(s, e),
        lambda s, e: plan.corrupt(s, e),
        lambda s, e: plan.partition(draw(st.sampled_from([None, "a", "b"])),
                                    draw(st.sampled_from([None, "c"])), s, e),
        lambda s, e: plan.latency(s, e, extra_ns=draw(st.integers(0, MS))),
        lambda s, e: plan.nic_stall("dpdk0", s, e,
                                    extra_ns=draw(st.integers(0, MS))),
        lambda s, e: plan.nic_ring_clamp("dpdk0", s, e,
                                         limit=draw(st.integers(0, 64))),
        lambda s, e: plan.nvme_slow("nvme0", s, e,
                                    factor=draw(st.floats(1, 100,
                                                          allow_nan=False))),
    )
    for index in draw(st.lists(st.integers(0, len(builders) - 1),
                               min_size=0, max_size=5)):
        start, end = _window(draw, 5 * MS, 5 * MS, min_len=1)
        builders[index](start, end)
    return plan


class TestDeliveryUnderChaos:
    @given(plan=tcp_safe_plans())
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_dpdk_tcp_delivers_exact_byte_stream(self, plan):
        result = run_scenario("echo", "dpdk", plan=plan,
                              n_messages=6, message_size=128)
        result.require_ok()  # message carries the (seed, plan) repro

    @given(seed=seeds, start=st.integers(0, 500 * US),
           duration=st.integers(50 * US, 1 * MS))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_healing_partition_never_loses_data(self, seed, start, duration):
        plan = FaultPlan(seed=seed).partition(None, None, start,
                                              start + duration)
        result = run_scenario("echo", "dpdk", plan=plan,
                              n_messages=6, message_size=128)
        result.require_ok()

    @given(seed=seeds, start=st.integers(0, 2 * MS),
           duration=st.integers(100 * US, 5 * MS),
           factor=st.floats(1.0, 200.0, allow_nan=False))
    @settings(max_examples=max(10, EXAMPLES // 2), deadline=None,
              derandomize=True)
    def test_storage_reads_back_under_slow_flash(self, seed, start,
                                                 duration, factor):
        plan = FaultPlan(seed=seed).nvme_slow("nvme0", start,
                                              start + duration,
                                              factor=factor)
        result = run_scenario("storage", "spdk", plan=plan,
                              n_records=4, record_size=512)
        result.require_ok()


class TestPlanProperties:
    @given(plan=any_plans())
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_plan_json_roundtrip(self, plan):
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert FaultPlan.from_json(again.to_json()) == again

    @given(plan=any_plans(), frames=st.integers(1, 40))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_frame_fate_is_a_pure_function_of_seed_and_plan(self, plan,
                                                            frames):
        text = plan.to_json()

        def decisions():
            injector = FaultInjector(FaultPlan.from_json(text))
            injector.attach_fabric(Fabric(Simulator(), DEFAULT_COSTS,
                                          rng=Rng(0)))
            return [injector.frame_fate("a", "b", b"x" * 64, 64)
                    for _ in range(frames)]

        assert decisions() == decisions()
