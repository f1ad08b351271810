"""Integration tests for the RSS-sharded serving path.

The tentpole claims, asserted end to end on a 4-shard world:

* flow steering and key partitioning agree (zero misrouted requests);
* every wake-up carries work owned by the woken shard (zero wasted and
  zero cross-shard wake-ups - the wake-one property at N workers);
* each shard's qtoken table closes its lifecycle identity;
* the work actually spreads: every shard serves requests on its own
  core, fed by its own NIC RX queue.
"""

import pytest

from repro.apps.kvstore import demi_kv_client
from repro.apps.proto import LegacyKvCodec
from repro.cluster import shard_workload, src_port_for_queue
from repro.experiments import ExperimentSpec, check_payload, run_spec
from repro.sim.rand import Rng
from repro.sim.trace import LatencyStats
from repro.testbed import make_sharded_kv_world

N_SHARDS = 4
OPS_PER_SHARD = 60


def scaling_row(cores, seed=7, **params):
    """One ``kv-scaling`` run's metrics (the row a sweep document holds)."""
    return run_spec(ExperimentSpec("kv-scaling", cores=cores, seed=seed,
                                   params=params))["metrics"]


def committed_sweeps():
    """The repo-root BENCH_kv_scaling.json trajectory, oldest first."""
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_kv_scaling.json")
    with open(path) as fh:
        return json.load(fh)


def run_sharded(n_shards=N_SHARDS, n_ops=OPS_PER_SHARD, drop_rate=0.0,
                seed=11):
    w, server, clients = make_sharded_kv_world(
        n_shards, seed=seed, drop_rate=drop_rate,
        server_kwargs={"codec_factory": LegacyKvCodec})
    server.start()
    rng = Rng(seed).fork_named("cluster-test")
    procs, results = [], []
    stats = LatencyStats("test")
    for i, client in enumerate(clients):
        ops = shard_workload(rng.fork(i), n_ops, i, n_shards,
                             n_keys=8, value_size=64)
        procs.append(w.sim.spawn(
            demi_kv_client(client, server.ip, ops, port=server.port,
                           stats=stats, src_port=src_port_for_queue(
                               client.ip, server.ip, i, n_shards,
                               server.port)),
            name="testclient%d" % i))
    for proc in procs:
        w.sim.run_until_complete(proc, limit=10**13)
        results.append(proc.value[0])
    server.stop()
    return w, server, results


class TestShardedServing:
    def setup_method(self):
        self.w, self.server, self.results = run_sharded()

    def test_every_response_ok(self):
        for per_client in self.results:
            for response in per_client:
                if response is not None:      # GETs only
                    ok, _ = response
                    assert ok

    def test_every_shard_serves_its_own_flow(self):
        per_shard = self.server.per_shard_requests()
        assert len(per_shard) == N_SHARDS
        assert all(n > 0 for n in per_shard)
        assert sum(per_shard) == N_SHARDS * OPS_PER_SHARD

    def test_no_misrouted_requests(self):
        assert self.server.misrouted == 0

    def test_wake_one_property(self):
        # Paper section 4.4 at N workers: qtoken wake-ups are targeted,
        # so no shard ever wakes without work or for another's work.
        assert all(shard.libos.counters.shard_wakeups > 0
                   for shard in self.server.shards)
        assert self.server.wasted_wakeups == 0
        assert self.server.cross_wakeups == 0

    def test_qtoken_identity_per_shard(self):
        for shard in self.server.shards:
            assert shard.libos.qtokens.identity_ok, (
                "shard %d leaked qtokens" % shard.index)

    def test_every_core_did_work(self):
        for shard in self.server.shards:
            assert shard.core.busy_ns > 0, (
                "core %d idle: work not spread" % shard.index)

    def test_every_rx_queue_saw_frames(self):
        for q in range(N_SHARDS):
            frames = self.w.tracer.get("server.dpdk0.rxq%d_frames" % q)
            assert frames > 0, "RX queue %d never used" % q


class TestShardedUnderChaos:
    """Drops force TCP retransmits; the shard invariants must survive."""

    def test_lossy_run_keeps_invariants(self):
        w, server, results = run_sharded(drop_rate=0.02, seed=23)
        assert sum(server.per_shard_requests()) == N_SHARDS * OPS_PER_SHARD
        assert server.misrouted == 0
        assert server.wasted_wakeups == 0
        assert server.cross_wakeups == 0
        assert server.qtoken_identity_ok()

    def test_lossy_run_is_deterministic(self):
        rows = [run_sharded(drop_rate=0.02, seed=23)[1].per_shard_requests()
                for _ in range(2)]
        assert rows[0] == rows[1]


class TestScalingBench:
    def test_throughput_scales_with_clean_wake_hygiene(self):
        runs = [run_spec(ExperimentSpec("kv-scaling", cores=cores,
                                        params={"n_ops": 40}))
                for cores in (1, 2)]
        assert [r["failures"] for r in runs] == [[], []]
        one, two = (r["metrics"] for r in runs)
        assert two["throughput_ops_per_s"] > one["throughput_ops_per_s"]

    def test_single_shard_degenerate_case(self):
        row = scaling_row(1, n_ops=30, n_keys=8)
        assert row["cores"] == 1
        assert row["requests"] == 30
        assert row["wasted_wakeups"] == 0
        assert row["qtoken_identity_ok"] is True

    def test_mismatched_queue_count_rejected(self):
        from repro.cluster import ShardedKvServer
        w, server, _ = make_sharded_kv_world(2, seed=3)
        with pytest.raises(ValueError):
            ShardedKvServer(server.host, server.nic, "10.0.0.100", 4)

    @pytest.mark.parametrize("cores", [1, 4])
    def test_committed_rows_reproduce_exactly(self, cores):
        # The refactoring oracle: a run is a pure function of its spec,
        # so re-running a committed row must give it back key for key.
        import json
        doc = committed_sweeps()[-1]
        committed = next(r for r in doc["rows"] if r["cores"] == cores)
        row = scaling_row(cores, seed=committed["seed"], n_ops=200)
        assert json.loads(json.dumps(row)) == committed["metrics"]

    def test_committed_baseline_still_validates(self):
        # The repo-root BENCH_kv_scaling.json is a persisted baseline;
        # regenerate with `python -m repro exp run
        # experiments/kv_scaling.json -o BENCH_kv_scaling.json` if the
        # serving path legitimately changes.
        sweeps = committed_sweeps()
        assert check_payload(sweeps) == []
        doc = sweeps[-1]
        assert doc["name"] == "kv-scaling"
        assert [r["cores"] for r in doc["rows"]] == [1, 2, 4, 8, 16, 32]
        # The knee regression gate in test_scaling_knee.py asserts the
        # shape; here just pin that the batched sweep stayed flat.
        rows = [r["metrics"] for r in doc["rows"]]
        four = next(r for r in rows if r["cores"] == 4)
        for row in rows:
            if row["cores"] >= 8:
                assert row["rtt_mean_ns"] <= four["rtt_mean_ns"] * 1.05
