"""The open-loop load generator: determinism, overload shape, churn.

An open-loop generator is only useful if (a) the same seed offers the
same traffic, (b) it actually exposes overload - goodput plateaus at
capacity while tail latency explodes - and (c) the adversarial knobs
(churn, stalls, split writes) run without corrupting a single stream.
Each test here pins one of those properties with short windows so the
suite stays fast.  The generator's legs run as the ``open-loop`` /
``open-loop-sharded`` rows of the scenario table, so every run here is
also checked by the driver's invariants (``require_ok``).
"""

from repro.apps.proto import CODECS
from repro.apps.proto.resp import RespCodec
from repro.bench.loadgen import arrival_times
from repro.sim.faults import FaultPlan
from repro.sim.rand import Rng
from repro.testing import run_scenario


def open_loop(seed=7, kind="dpdk", cores=1, **overrides):
    """One offered-load point's row (``ScenarioResult.data``)."""
    knobs = dict(rate_ops_per_s=40_000.0, duration_ms=5, n_connections=2,
                 n_keys=16, value_size=32)
    knobs.update(overrides)
    if cores > 1:
        result = run_scenario("open-loop-sharded", kind,
                              plan=FaultPlan(seed=seed), cores=cores, **knobs)
    else:
        result = run_scenario("open-loop", kind, plan=FaultPlan(seed=seed),
                              **knobs)
    row = dict(result.require_ok().data)
    del row["finished_at"]
    return row


class TestArrivalTimes:
    def test_seeded_and_sorted(self):
        a = arrival_times(Rng(3).fork(1), 100_000.0, 2_000_000)
        b = arrival_times(Rng(3).fork(1), 100_000.0, 2_000_000)
        assert a == b
        assert a == sorted(a)
        assert all(0 <= t < 2_000_000 for t in a)

    def test_rate_sets_the_count(self):
        # 100k ops/s over 10 ms -> ~1000 arrivals (Poisson, so roughly).
        times = arrival_times(Rng(5).fork(1), 100_000.0, 10_000_000)
        assert 800 < len(times) < 1200

    def test_zero_rate_is_empty(self):
        assert arrival_times(Rng(1).fork(1), 0.0, 10_000_000) == []


class TestSeedDeterminism:
    def test_same_seed_same_row(self):
        assert open_loop(seed=11) == open_loop(seed=11)

    def test_different_seed_different_traffic(self):
        assert open_loop(seed=11) != open_loop(seed=12)


class TestOpenLoopRuns:
    def test_resp_run_is_clean(self):
        row = open_loop()
        assert row["completed"] > 0
        assert row["server_decode_errors"] == 0
        assert row["client_decode_errors"] == 0
        assert row["error_replies"] == 0
        assert row["p50_ns"] <= row["p99_ns"] <= row["p999_ns"]

    def test_memcached_posix_run_is_clean(self):
        row = open_loop(kind="posix", protocol="memcached")
        assert row["completed"] > 0
        assert row["server_decode_errors"] == 0
        assert row["client_decode_errors"] == 0

    def test_churn_stall_and_chunking_survive(self):
        # All three adversarial knobs at once: reconnect every 40
        # requests, one reader stalls mid-run, every push split into
        # 7-byte chunks.  Zero tolerance for stream corruption.
        row = open_loop(seed=9, duration_ms=8, churn_every=40, stall_conns=1,
                        chunk_bytes=7)
        assert row["reconnects"] > 0
        assert row["stalls"] == 1
        assert row["server_decode_errors"] == 0
        assert row["client_decode_errors"] == 0
        assert row["error_replies"] == 0

    def test_sharded_run_is_clean(self):
        row = open_loop(cores=2, rate_ops_per_s=60_000.0)
        assert row["completed"] > 0
        assert row["server_decode_errors"] == 0


class OneBadRequest(RespCodec):
    """RESP whose 10th request after the preload is framing damage."""

    name = "resp-one-bad"
    encoded = 0

    def encode_request(self, request):
        OneBadRequest.encoded += 1
        if OneBadRequest.encoded == 16 + 10:
            return b"!not-resp\r\n"
        return super().encode_request(request)


def test_a_connection_the_server_closes_ends_that_connection_only(
        monkeypatch):
    # The server's decode-error policy closes the connection that sent
    # the damage.  Its pop completes with an error and wait_any retires
    # the token: waiting on it again (or cancelling it) used to raise
    # "unknown or already-waited qtoken" out of the connection process
    # and abort the whole run.
    monkeypatch.setitem(CODECS, OneBadRequest.name, OneBadRequest)
    monkeypatch.setattr(OneBadRequest, "encoded", 0)
    row = open_loop(protocol=OneBadRequest.name)
    assert row["server_decode_errors"] == 1
    # The closed connection stops sending; the one request it is owed a
    # reply for stays uncompleted and the row shows it.
    assert row["completed"] == row["sent"] - 1
    # Every request the server answered after the 16-key preload was
    # received: the connection that stayed up lost nothing.
    assert row["completed"] == row["server_requests"] - 16
    assert row["client_decode_errors"] == 0


class TestOverloadShape:
    def test_goodput_plateaus_and_tail_explodes(self):
        # dpdk single core saturates around 360k ops/s (goodput reads
        # 359k at 360k offered, 365k at 420k and at 480k).  Sweeping to
        # 130% must show the open-loop signature: goodput stops
        # tracking offered load while p99.9 keeps climbing.
        by_load = {
            fraction: open_loop(rate_ops_per_s=360_000.0 * fraction,
                                duration_ms=15, n_connections=4, n_keys=32,
                                value_size=128)
            for fraction in (0.3, 0.7, 1.0, 1.3)}

        # Below the knee goodput tracks offered load closely...
        assert by_load[0.3]["goodput_ops_per_s"] > 0.8 * 0.3 * 360_000
        # ...past saturation it plateaus: 30% more offered load buys
        # almost nothing.
        overload_gain = (by_load[1.3]["goodput_ops_per_s"]
                         / by_load[1.0]["goodput_ops_per_s"])
        assert overload_gain < 1.15
        assert by_load[1.3]["goodput_ops_per_s"] \
            < 0.95 * 1.3 * 360_000
        # The tail is monotone across the sweep and explodes under
        # overload (queueing delay, not service time).
        p999 = [row["p999_ns"] for row in by_load.values()]
        assert p999 == sorted(p999)
        assert by_load[1.3]["p999_ns"] > 10 * by_load[0.3]["p999_ns"]
        # Overload must not manufacture protocol errors.
        assert all(row["server_decode_errors"] == 0
                   for row in by_load.values())
        assert all(row["error_replies"] == 0 for row in by_load.values())
