"""Runner determinism, fan-out, resumability, and trajectory gating."""

import json

import pytest

from repro.experiments import (ExperimentSpec, Matrix, Runner, SpecBatch,
                               append_document, check_document, check_payload,
                               completed_rows, execute_spec, load_payload,
                               trajectory_document)

#: a small, fast matrix: 2 libOSes x 2 client counts x faulted/fault-free
FAST_SPECS = Matrix(base={"workload": "kv", "seed": 7,
                          "params": {"n_ops": 20, "n_keys": 8}},
                    axes={"libos": ["dpdk", "posix"],
                          "cores": [1, 2],
                          "fault_plan": ["none", "reorder-dup-storm"]}
                    ).expand()


@pytest.fixture(scope="module")
def rows():
    return Runner(workers=1).run(FAST_SPECS)


class TestDeterminism:
    def test_same_seed_same_trajectory(self, rows):
        again = Runner(workers=1).run(FAST_SPECS)
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(rows, sort_keys=True))

    def test_worker_fanout_matches_inline(self, rows):
        fanned = Runner(workers=4).run(FAST_SPECS)
        assert (json.dumps(fanned, sort_keys=True)
                == json.dumps(rows, sort_keys=True))

    def test_different_seed_different_metrics(self):
        base = dict(workload="kv", libos="dpdk", cores=1,
                    fault_plan="reorder-dup-storm",
                    params={"n_ops": 20, "n_keys": 8})
        a = execute_spec(ExperimentSpec(seed=1, **base))
        b = execute_spec(ExperimentSpec(seed=2, **base))
        assert a["metrics"] != b["metrics"]


class TestRows:
    def test_rows_come_back_in_spec_order(self, rows):
        assert [r["run_id"] for r in rows] == [s.run_id for s in FAST_SPECS]

    def test_rows_carry_the_full_spec_identity(self, rows):
        for spec, row in zip(FAST_SPECS, rows):
            assert row["workload"] == spec.workload
            assert row["libos"] == spec.libos
            assert row["cores"] == spec.cores
            assert row["fault_plan"] == spec.fault_plan
            assert row["seed"] == spec.seed

    def test_all_fast_runs_hold_their_invariants(self, rows):
        for row in rows:
            assert row["status"] == "ok", row
            assert row["ok"] is True, row
            assert row["failures"] == []

    def test_failures_are_captured_not_raised(self):
        # cores > available concurrency won't fail, so break the spec at
        # a deeper level: an inline plan whose events dict is malformed
        # passes validate (it's a dict) but explodes at resolve time.
        row = execute_spec(ExperimentSpec(
            workload="kv", fault_plan={"seed": 1, "events": [{"bad": 1}]}))
        assert row["status"] == "failed"
        assert row["ok"] is False
        assert row["failures"]


class TestTrajectory:
    def test_document_validates_under_the_schema(self, rows):
        batch = SpecBatch("fast", FAST_SPECS,
                          budgets={"rtt_mean_ns": {"max": 500_000},
                                   "throughput_ops_per_s": {"min": 1}},
                          monotonic=[{"metric": "throughput_ops_per_s",
                                      "by": "cores",
                                      "group_by": ["workload", "libos",
                                                   "fault_plan"]}])
        doc = trajectory_document(batch, rows)
        assert check_document(doc) == []

    def test_budget_violation_rejected(self, rows):
        batch = SpecBatch("tight", FAST_SPECS,
                          budgets={"rtt_mean_ns": {"max": 1}})
        doc = trajectory_document(batch, rows)
        errors = check_document(doc)
        assert errors
        assert any("rtt_mean_ns" in e and "exceeds" in e for e in errors)

    def test_budget_floor_violation_rejected(self, rows):
        batch = SpecBatch("floor", FAST_SPECS,
                          budgets={"throughput_ops_per_s": {"min": 10**12}})
        errors = check_document(trajectory_document(batch, rows))
        assert any("below" in e for e in errors)

    def test_failed_run_fails_validation(self, rows):
        batch = SpecBatch("fast", FAST_SPECS)
        doc = trajectory_document(batch, list(rows))
        doc["rows"] = [dict(r) for r in doc["rows"]]
        doc["rows"][0]["status"] = "failed"
        assert any("status" in e for e in check_document(doc))

    def test_duplicate_run_id_fails_validation(self, rows):
        batch = SpecBatch("fast", FAST_SPECS)
        doc = trajectory_document(batch, list(rows) + [dict(rows[0])])
        assert any("duplicate run_id" in e for e in check_document(doc))

    def test_monotonic_violation_rejected(self, rows):
        batch = SpecBatch("mono", FAST_SPECS,
                          monotonic=[{"metric": "throughput_ops_per_s",
                                      "by": "cores",
                                      "group_by": ["workload", "libos",
                                                   "fault_plan"]}])
        doc = trajectory_document(batch, [dict(r) for r in rows])
        for row in doc["rows"]:
            row["metrics"] = dict(row["metrics"])
            if row["cores"] == 2:
                row["metrics"]["throughput_ops_per_s"] = 1.0
        errors = check_document(doc)
        assert any("not strictly increasing" in e for e in errors)

    def test_trajectory_prefixes_document_index(self, rows):
        batch = SpecBatch("fast", FAST_SPECS)
        good = trajectory_document(batch, rows)
        bad = trajectory_document(batch, [dict(rows[0], ok=False)])
        errors = check_payload([good, bad])
        assert errors and all(e.startswith("doc[1]: ") for e in errors)


class TestResume:
    def test_cached_rows_are_reused_verbatim(self, rows, tmp_path):
        batch = SpecBatch("resume", FAST_SPECS)
        out = tmp_path / "traj.json"
        append_document(str(out), trajectory_document(batch, rows))
        cached = completed_rows(load_payload(str(out)), "resume")
        assert set(cached) == {s.run_id for s in FAST_SPECS}

        calls = []
        runner = Runner(workers=1, progress=calls.append)
        resumed = runner.run(FAST_SPECS, cached=cached)
        assert (json.dumps(resumed, sort_keys=True)
                == json.dumps(rows, sort_keys=True))
        assert all(line.startswith("cached") for line in calls)

    def test_failed_rows_are_not_cached(self, rows):
        batch = SpecBatch("resume", FAST_SPECS)
        doc = trajectory_document(batch, [dict(rows[0], status="failed")])
        assert completed_rows([doc], "resume") == {}

    def test_other_batches_do_not_pollute_the_cache(self, rows):
        doc = trajectory_document(SpecBatch("other", FAST_SPECS), rows)
        assert completed_rows([doc], "resume") == {}
