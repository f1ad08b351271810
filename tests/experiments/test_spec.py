"""Spec round-trips, matrix expansion, and spec-file loading."""

import json

import pytest

from repro.experiments import (ExperimentSpec, Matrix, SpecBatch, SpecError,
                               load_spec_file, validate_spec)


class TestSpecRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = ExperimentSpec(workload="kv", libos="posix", cores=2,
                              fault_plan="reorder-dup-storm", seed=11,
                              params={"n_ops": 80})
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec(workload="kv")
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.libos == "dpdk" and clone.cores == 1
        assert clone.fault_plan == "none" and clone.seed == 7

    def test_inline_plan_round_trips(self):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan(seed=3).loss(0, 1000, rate=1.0)
        spec = ExperimentSpec(workload="kv", fault_plan=plan.to_dict())
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.resolve_plan().to_dict() == plan.to_dict()

    def test_run_id_is_content_addressed(self):
        a = ExperimentSpec(workload="kv", seed=7)
        b = ExperimentSpec(workload="kv", seed=7)
        c = ExperimentSpec(workload="kv", seed=8)
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert len(a.run_id) == 12

    def test_params_are_copied_not_aliased(self):
        params = {"n_ops": 10}
        spec = ExperimentSpec(workload="kv", params=params)
        params["n_ops"] = 99
        assert spec.params["n_ops"] == 10

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            ExperimentSpec.from_dict({"workload": "kv", "shards": 4})

    def test_missing_workload_rejected(self):
        with pytest.raises(SpecError, match="workload"):
            ExperimentSpec.from_dict({"libos": "dpdk"})

    def test_bad_cores_rejected(self):
        with pytest.raises(SpecError, match="cores"):
            ExperimentSpec(workload="kv", cores=0)

    def test_seed_override_changes_resolved_plan(self):
        spec = ExperimentSpec(workload="kv", fault_plan="reorder-dup-storm",
                              seed=99)
        plan = spec.resolve_plan()
        assert plan.seed == 99
        assert plan.events  # the golden events survive the seed override


class TestMatrixExpansion:
    def test_cardinality_is_the_cross_product(self):
        specs = Matrix(base={"workload": "kv", "seed": 7},
                       axes={"libos": ["dpdk", "posix"],
                             "cores": [1, 2],
                             "fault_plan": ["none", "reorder-dup-storm"]}
                       ).expand()
        assert len(specs) == 8
        assert len({s.run_id for s in specs}) == 8

    def test_expansion_order_is_deterministic(self):
        make = lambda: Matrix(base={"workload": "kv"},
                              axes={"libos": ["dpdk", "posix"],
                                    "cores": [1, 2]}).expand()
        assert [s.run_id for s in make()] == [s.run_id for s in make()]
        # last axis varies fastest
        cores = [s.cores for s in make()]
        assert cores == [1, 2, 1, 2]

    def test_duplicate_combinations_deduplicated(self):
        specs = Matrix(base={"workload": "kv"},
                       axes={"cores": [1, 2, 1],
                             "libos": ["dpdk", "dpdk"]}).expand()
        assert len(specs) == 2

    def test_invalid_combination_raises_without_skip(self):
        with pytest.raises(SpecError, match="invalid matrix combination"):
            Matrix(base={"workload": "kv-scaling"},
                   axes={"libos": ["dpdk", "posix"]}).expand()

    def test_skip_invalid_drops_bad_combinations(self):
        specs = Matrix(base={"workload": "kv-scaling"},
                       axes={"libos": ["dpdk", "posix"], "cores": [1, 2]},
                       skip_invalid=True).expand()
        assert {s.libos for s in specs} == {"dpdk"}
        assert len(specs) == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown matrix axis"):
            Matrix(base={"workload": "kv"}, axes={"shards": [1]})

    def test_all_invalid_is_an_error_even_with_skip(self):
        with pytest.raises(SpecError, match="no runs"):
            Matrix(base={"workload": "kv-scaling"},
                   axes={"libos": ["posix", "rdma"]},
                   skip_invalid=True).expand()


class TestValidateSpec:
    def test_unknown_workload(self):
        reason = validate_spec(ExperimentSpec(workload="nope"))
        assert reason is not None and "unknown workload" in reason

    def test_unknown_plan_name_caught_at_validate_time(self):
        reason = validate_spec(ExperimentSpec(workload="kv",
                                              fault_plan="no-such-plan"))
        assert reason is not None and "fault_plan" in reason

    def test_chaos_kind_mismatch(self):
        reason = validate_spec(ExperimentSpec(workload="chaos", libos="rdma",
                                              fault_plan="rx-ring-overflow"))
        assert reason is not None and "does not run on" in reason

    def test_valid_spec_passes(self):
        assert validate_spec(ExperimentSpec(workload="kv")) is None


class TestSpecFiles:
    def test_batch_file_with_matrix(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "name": "demo",
            "budgets": {"rtt_mean_ns": 1_000_000},
            "experiments": [
                {"workload": "kv", "libos": "dpdk"},
                {"matrix": {"base": {"workload": "kv", "libos": "posix"},
                            "axes": {"cores": [1, 2]}}},
            ],
        }))
        batch = load_spec_file(str(path))
        assert batch.name == "demo"
        assert len(batch.specs) == 3
        assert batch.params() == {"budgets": {"rtt_mean_ns": 1_000_000}}

    def test_single_spec_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"workload": "kv"}))
        batch = load_spec_file(str(path))
        assert batch.name == "one"
        assert len(batch.specs) == 1

    def test_duplicate_runs_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "name": "dup",
            "experiments": [{"workload": "kv"}, {"workload": "kv"}],
        }))
        with pytest.raises(SpecError, match="duplicate run"):
            load_spec_file(str(path))

    def test_unknown_batch_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiments": [{"workload": "kv"}],
                                    "budget": {}}))
        with pytest.raises(SpecError, match="unknown batch field"):
            load_spec_file(str(path))

    def test_committed_spec_files_load_and_validate(self):
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..",
                            "experiments")
        for name in ("ci_matrix.json", "kv_scaling.json",
                     "chaos_battery.json"):
            batch = load_spec_file(os.path.join(root, name))
            assert batch.specs
            for spec in batch.specs:
                assert validate_spec(spec) is None, spec.describe()

    def test_ci_matrix_covers_the_claimed_axes(self):
        import os
        batch = load_spec_file(os.path.join(os.path.dirname(__file__),
                                            "..", "..", "experiments",
                                            "ci_matrix.json"))
        assert len({s.libos for s in batch.specs}) >= 2
        assert len({s.cores for s in batch.specs}) >= 2
        assert any(s.fault_plan != "none" for s in batch.specs)


class TestSpecBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(SpecError, match="no runs"):
            SpecBatch("empty", [])
