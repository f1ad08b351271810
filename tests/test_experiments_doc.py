"""Anchors for EXPERIMENTS.md: the simulation is deterministic, so the
headline numbers recorded in the document must keep reproducing.  If a
cost-model or protocol change moves them, this test fails and the
document must be re-recorded - no silent doc rot.
"""

import pytest

from repro.experiments import ExperimentSpec, run_spec
from repro.sim.costs import DEFAULT_COSTS


def echo_rtt(flavor, message_size):
    return run_spec(ExperimentSpec(
        "echo-rtt", libos=flavor,
        params={"message_size": message_size}))["metrics"]


class TestRecordedAnchors:
    def test_kernel_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG1: kernel RTT at 64 B = 19.05 us.
        result = echo_rtt("posix", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(19_050, rel=0.02)

    def test_dpdk_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG1: bypass RTT at 64 B = 4.87 us.
        result = echo_rtt("dpdk", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(4_870, rel=0.02)

    def test_rdma_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG2: catmint data path = 3.98 us.
        result = echo_rtt("rdma", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(3_980, rel=0.02)

    def test_mtcp_echo_rtt_as_documented(self):
        # EXPERIMENTS.md C5: mTCP shim at 64 B = 40.0 us.
        result = echo_rtt("mtcp", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(40_000, rel=0.02)

    def test_copy_anchor_as_documented(self):
        # EXPERIMENTS.md C2: 4 KB copy = 1.04 us.
        assert DEFAULT_COSTS.copy_ns(4096) == 1040

    def test_speedup_band_as_documented(self):
        # EXPERIMENTS.md FIG1: 3.9-5.5x across the size sweep, growing
        # with message size.
        small = echo_rtt("posix", 64)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 64)["rtt_mean_ns"]
        mid = echo_rtt("posix", 1500)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 1500)["rtt_mean_ns"]
        large = echo_rtt("posix", 8192)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 8192)["rtt_mean_ns"]
        assert 3.5 < small < 5.0
        assert 5.0 < large < 6.0
        assert large > mid > small
