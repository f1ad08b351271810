"""Tests for the ``params.reductions`` schema gate and offload workloads."""

import json

import pytest

from repro.experiments.schema import check_document
from repro.experiments.spec import ExperimentSpec, SpecBatch, load_spec_file
from repro.experiments.workloads import validate_spec, workload_names


def make_doc(rows, reductions=None, **params):
    if reductions is not None:
        params["reductions"] = reductions
    return {
        "bench": "experiment",
        "schema_version": 1,
        "name": "offload-gates",
        "params": params,
        "rows": rows,
    }


def make_row(run_id, workload="kv-offload", **metrics):
    return {
        "run_id": run_id, "workload": workload, "libos": "dpdk",
        "cores": 1, "fault_plan": "none", "seed": 1,
        "status": "ok", "ok": True, "failures": [], "metrics": metrics,
    }


class TestReductionsGate:
    def test_satisfied_reduction_passes(self):
        doc = make_doc(
            [make_row("r1", host_cpu_per_op_host_ns=3000,
                      host_cpu_per_op_offload_ns=700)],
            reductions=[{"metric": "host_cpu_per_op_offload_ns",
                         "baseline": "host_cpu_per_op_host_ns",
                         "min_factor": 2.0}])
        assert check_document(doc) == []

    def test_eroded_win_fails(self):
        doc = make_doc(
            [make_row("r1", host_cpu_per_op_host_ns=1000,
                      host_cpu_per_op_offload_ns=700)],
            reductions=[{"metric": "host_cpu_per_op_offload_ns",
                         "baseline": "host_cpu_per_op_host_ns",
                         "min_factor": 2.0}])
        errors = check_document(doc)
        assert len(errors) == 1
        assert "not 2x below" in errors[0]

    def test_min_factor_defaults_to_parity(self):
        doc = make_doc(
            [make_row("r1", a_ns=500, b_ns=499)],
            reductions=[{"metric": "a_ns", "baseline": "b_ns"}])
        errors = check_document(doc)
        assert len(errors) == 1  # 499 < 500 * 1.0

    def test_missing_metric_is_an_error_not_a_skip(self):
        doc = make_doc(
            [make_row("r1", host_cpu_per_op_host_ns=3000)],
            reductions=[{"metric": "host_cpu_per_op_offload_ns",
                         "baseline": "host_cpu_per_op_host_ns"}])
        errors = check_document(doc)
        assert any("missing or non-numeric" in e for e in errors)

    def test_workload_scoping_applies_rule_selectively(self):
        rows = [
            make_row("r1", workload="kv-offload",
                     host_cpu_per_op_host_ns=3000,
                     host_cpu_per_op_offload_ns=700),
            make_row("r2", workload="storelog-scan",
                     scan_cpu_per_record_host_ns=650,
                     scan_cpu_per_record_device_ns=10),
        ]
        doc = make_doc(
            rows,
            reductions=[
                {"workload": "kv-offload",
                 "metric": "host_cpu_per_op_offload_ns",
                 "baseline": "host_cpu_per_op_host_ns", "min_factor": 2.0},
                {"workload": "storelog-scan",
                 "metric": "scan_cpu_per_record_device_ns",
                 "baseline": "scan_cpu_per_record_host_ns",
                 "min_factor": 5.0},
            ])
        assert check_document(doc) == []

    def test_rule_matching_no_rows_is_an_error(self):
        doc = make_doc(
            [make_row("r1", a=1, b=2)],
            reductions=[{"workload": "no-such-workload",
                         "metric": "a", "baseline": "b"}])
        errors = check_document(doc)
        assert any("no rows matched" in e for e in errors)

    def test_malformed_rule_reported(self):
        doc = make_doc([make_row("r1", a=1)],
                       reductions=[{"metric": "a"}])
        errors = check_document(doc)
        assert any("expected {'metric', 'baseline'" in e for e in errors)

    def test_non_positive_factor_reported(self):
        doc = make_doc(
            [make_row("r1", a=1, b=2)],
            reductions=[{"metric": "a", "baseline": "b", "min_factor": 0}])
        errors = check_document(doc)
        assert any("min_factor" in e for e in errors)

    def test_reductions_must_be_a_list(self):
        doc = make_doc([make_row("r1", a=1)], reductions={"metric": "a"})
        errors = check_document(doc)
        assert any("params.reductions is not a list" in e for e in errors)


class TestSpecThreading:
    def test_batch_params_carry_reductions(self):
        spec = ExperimentSpec(workload="kv-offload", libos="dpdk")
        rules = [{"metric": "a", "baseline": "b", "min_factor": 2.0}]
        batch = SpecBatch("b", [spec], reductions=rules)
        assert batch.params()["reductions"] == rules

    def test_load_spec_file_accepts_reductions(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "t",
            "reductions": [{"metric": "a", "baseline": "b"}],
            "experiments": [{"workload": "kv-offload", "libos": "dpdk"}],
        }))
        batch = load_spec_file(str(path))
        assert batch.reductions == [{"metric": "a", "baseline": "b"}]
        assert "reductions" in batch.params()

    def test_committed_offload_spec_loads(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "experiments", "kv_offload.json")
        batch = load_spec_file(path)
        assert len(batch.reductions) == 2
        workloads = {s.workload for s in batch.specs}
        assert workloads == {"kv-offload", "storelog-scan"}


class TestOffloadWorkloadRegistry:
    def test_workloads_registered(self):
        names = workload_names()
        assert "kv-offload" in names
        assert "storelog-scan" in names

    def test_kv_offload_validation(self):
        ok = ExperimentSpec(workload="kv-offload", libos="dpdk")
        assert validate_spec(ok) is None
        for bad in (
            ExperimentSpec(workload="kv-offload", libos="posix"),
            ExperimentSpec(workload="kv-offload", libos="dpdk", cores=2),
            ExperimentSpec(workload="kv-offload", libos="dpdk",
                           fault_plan="nic_storm"),
        ):
            assert validate_spec(bad) is not None

    def test_storelog_scan_validation(self):
        ok = ExperimentSpec(workload="storelog-scan", libos="spdk")
        assert validate_spec(ok) is None
        bad = ExperimentSpec(workload="storelog-scan", libos="dpdk")
        assert validate_spec(bad) is not None
