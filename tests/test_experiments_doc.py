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


def metrics(workload, cores=1, libos="dpdk", **params):
    """A row of *workload* (on dpdk by default), as its benchmark reads
    it."""
    out = run_spec(ExperimentSpec(workload, libos=libos, cores=cores,
                                  params=params))
    assert out["ok"], out["failures"]
    return out["metrics"]


class TestRecordedAnchors:
    def test_kernel_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG1: kernel RTT at 64 B = 19.05 us.
        result = echo_rtt("kernel", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(19_050, rel=0.02)

    def test_dpdk_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG1: bypass RTT at 64 B = 4.87 us.
        result = echo_rtt("dpdk", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(4_870, rel=0.02)

    def test_rdma_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG2: catmint data path = 3.82 us.
        result = echo_rtt("rdma", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(3_820, rel=0.02)

    def test_posix_libos_echo_rtt_as_documented(self):
        # EXPERIMENTS.md FIG2: catnap data path = 21.69 us.
        result = echo_rtt("posix", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(21_690, rel=0.02)

    def test_mtcp_shim_echo_rtt_as_documented(self):
        # EXPERIMENTS.md C5: mTCP shim at 64 B = 40.0 us.
        result = echo_rtt("mtcp", message_size=64)
        assert result["rtt_mean_ns"] == pytest.approx(40_000, rel=0.02)

    def test_copy_anchor_as_documented(self):
        # EXPERIMENTS.md C2: 4 KB copy = 1.04 us.
        assert DEFAULT_COSTS.copy_ns(4096) == 1040

    def test_speedup_band_as_documented(self):
        # EXPERIMENTS.md FIG1: 3.9-5.5x across the size sweep, growing
        # with message size.
        small = echo_rtt("kernel", 64)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 64)["rtt_mean_ns"]
        mid = echo_rtt("kernel", 1500)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 1500)["rtt_mean_ns"]
        large = echo_rtt("kernel", 8192)["rtt_mean_ns"] / \
            echo_rtt("dpdk", 8192)["rtt_mean_ns"]
        assert 3.5 < small < 5.0
        assert 5.0 < large < 6.0
        assert large > mid > small

    def test_redis_service_time_as_documented(self):
        # EXPERIMENTS.md C1: 1.74 us of app service time and 5.04 us of
        # server CPU per request at 1 KiB, the 51-op kv-rtt run.
        row = metrics("kv-rtt", n_gets=47, value_size=1024)
        assert row["service_mean_ns"] == pytest.approx(1_740, rel=0.02)
        assert row["server_cpu_per_req_ns"] == pytest.approx(5_043.9,
                                                             rel=0.02)

    def test_storage_path_as_documented(self):
        # EXPERIMENTS.md STOR: 64 x 1 KB appends, fsync every 8 - batches
        # of 160.9 us on the kernel VFS vs 132.8 us on the SPDK libOS,
        # which pays 65 us of host CPU to the VFS's 396 us and no syscall
        # and no copy.
        vfs, spdk = (metrics("storage", libos=kind, n_records=64,
                             record_size=1024, sync_every=8)
                     for kind in ("vfs", "spdk"))
        assert vfs["batch_mean_ns"] == pytest.approx(160_900, rel=0.02)
        assert spdk["batch_mean_ns"] == pytest.approx(132_800, rel=0.02)
        assert vfs["host_cpu_ns"] == pytest.approx(396_300, rel=0.02)
        assert spdk["host_cpu_ns"] == pytest.approx(64_960, rel=0.02)
        assert (vfs["syscalls"], vfs["bytes_copied"]) == (138, 131_072)
        assert (spdk["syscalls"], spdk["bytes_copied"]) == (0, 0)

    def test_kv_throughput_as_documented(self):
        # EXPERIMENTS.md TPUT: 4 clients x 30 ops, 1 KiB values = 260 kops/s.
        row = metrics("kv", cores=4, n_ops=30, n_keys=50, value_size=1024,
                      get_fraction=0.9)
        assert row["requests"] == 120
        assert row["throughput_ops_per_s"] == pytest.approx(259_700,
                                                            rel=0.02)

    def test_rss_scaling_as_documented(self):
        # EXPERIMENTS.md EXT2: 153 / 306 / 607 kops/s at 1 / 2 / 4 cores.
        for cores, ops_per_s in ((1, 153_500), (2, 305_700), (4, 606_700)):
            row = metrics("kv-scaling", cores=cores)
            assert row["throughput_ops_per_s"] == pytest.approx(ops_per_s,
                                                                rel=0.02)

    def test_offload_host_cpu_as_documented(self):
        # EXPERIMENTS.md C6: 3.19 -> 0.76 us of host CPU per GET, every
        # GET answered on the NIC.
        row = metrics("kv-offload")
        assert row["host_cpu_per_op_host_ns"] == pytest.approx(3_185,
                                                               rel=0.02)
        assert row["host_cpu_per_op_offload_ns"] == pytest.approx(757,
                                                                  rel=0.02)
        assert row["offload_kv_hits"] == 200
