"""Regression gate for the 8-core scaling knee.

Before the batched fast path, one serial NIC TX pipeline throttled all
shards: at 8 cores throughput flattened (~781k ops/s) and mean RTT grew
to ~10 us while 4 cores sat at ~7 us.  With per-TX-queue pipelines and
doorbell coalescing the sweep is flat again.  These tests pin that
shape at the knee point so a regression fails loudly instead of as a
slow drift in the committed bench file.
"""

import pytest

from repro.experiments import ExperimentSpec, run_spec

N_OPS = 80
# The marginal per-op server-CPU budget (measured ~3900 ns/op 1-core
# closed-loop, ~3970 loaded) plus each shard's amortized connection
# setup (ARP + accept + first touch, ~110 us) - the same formula
# experiments/kv_scaling.json states for the committed 200-op sweep.
BUDGET_NS = 4200 + 120_000 / N_OPS


@pytest.fixture(scope="module")
def four_and_eight():
    return tuple(
        run_spec(ExperimentSpec("kv-scaling", cores=cores, seed=13,
                                params={"n_ops": N_OPS}))["metrics"]
        for cores in (4, 8))


class TestEightCoreKnee:
    def test_throughput_still_scales_past_four_cores(self, four_and_eight):
        four, eight = four_and_eight
        # Doubling the shards must keep scaling near-linearly; the old
        # serialized-TX knee capped this ratio well below 1.5x.
        ratio = (eight["throughput_ops_per_s"]
                 / four["throughput_ops_per_s"])
        assert ratio >= 1.7, "8-core throughput only %.2fx of 4-core" % ratio

    def test_rtt_flat_across_the_knee(self, four_and_eight):
        four, eight = four_and_eight
        assert eight["rtt_mean_ns"] <= four["rtt_mean_ns"] * 1.10, (
            "8-core RTT %.0f ns vs %.0f ns at 4 cores - the knee is back"
            % (eight["rtt_mean_ns"], four["rtt_mean_ns"]))

    def test_per_core_utilization_does_not_inflate(self, four_and_eight):
        # Shared-nothing scaling: adding shards must not make each core
        # work harder per op (that is what queueing behind a shared
        # pipeline looks like).
        four, eight = four_and_eight
        mean4 = sum(four["per_core_utilization"]) / 4
        mean8 = sum(eight["per_core_utilization"]) / 8
        assert mean8 <= mean4 * 1.15, (
            "per-core utilization rose %.3f -> %.3f across the knee"
            % (mean4, mean8))

    def test_per_op_cpu_within_budget_and_flat(self, four_and_eight):
        four, eight = four_and_eight
        for row in (four, eight):
            assert row["per_op_server_cpu_ns"] <= BUDGET_NS
        assert (eight["per_op_server_cpu_ns"]
                <= four["per_op_server_cpu_ns"] * 1.05)

    def test_batching_actually_engaged(self, four_and_eight):
        _four, eight = four_and_eight
        assert eight["doorbells_saved"] > 0
        assert eight["requests_per_wakeup"] >= 0.9

    def test_wake_hygiene_at_eight_cores(self, four_and_eight):
        _four, eight = four_and_eight
        assert eight["wasted_wakeups"] == 0
        assert eight["cross_shard_wakeups"] == 0
        assert eight["misrouted_requests"] == 0
        assert eight["qtoken_identity_ok"] is True
