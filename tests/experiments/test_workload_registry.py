"""The decorated workload registry and its param schemas.

The registry replaced stringly-typed dispatch: workloads register via
``@register_workload`` with a declared param schema, and validate_spec
rejects unknown params and type mismatches before a single sim tick.
These tests pin the registration contract, the schema checking rules
(bool is not an int), and the proto-slo workload's own gates.
"""

import pytest

from repro.cli import main
from repro.experiments import ExperimentSpec, run_spec, validate_spec
from repro.experiments.workloads import (WORKLOADS, check_params,
                                         register_workload, schema_summary,
                                         spec_params, workload_names)


class TestRegistration:
    def test_decorator_registers_and_returns_fn(self):
        @register_workload("t-reg-decorated", blurb="test entry",
                           schema={"n": {"type": "int", "default": 1}})
        def run(spec):
            return {"metrics": {}, "ok": True, "failures": []}

        try:
            entry = WORKLOADS["t-reg-decorated"]
            assert entry["run"] is run
            assert entry["blurb"] == "test entry"
            assert entry["schema"]["n"]["type"] == "int"
        finally:
            del WORKLOADS["t-reg-decorated"]

    def test_decorator_with_a_schema_is_the_only_form(self):
        # No run= / three-positional direct call, no replace=, and no
        # schema-less "accepts anything" registration.
        run = lambda spec: {"metrics": {}, "ok": True, "failures": []}
        with pytest.raises(TypeError):
            register_workload("t-reg-legacy", lambda spec: None, run)
        with pytest.raises(TypeError):
            register_workload("t-reg-legacy", run=run, schema={})
        with pytest.raises(TypeError):
            register_workload("t-reg-legacy")
        assert "t-reg-legacy" not in WORKLOADS

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_workload("kv", schema={})
            def run(spec):
                pass

    def test_a_name_cannot_be_shadowed(self):
        original = WORKLOADS["kv"]
        with pytest.raises(TypeError):
            register_workload("kv", replace=True, schema={})
        assert WORKLOADS["kv"] is original

    def test_bad_schema_type_rejected_at_registration(self):
        with pytest.raises(ValueError, match="unknown type"):
            @register_workload("t-reg-bad-schema",
                               schema={"x": {"type": "complex"}})
            def run(spec):
                pass
        assert "t-reg-bad-schema" not in WORKLOADS

    def test_every_builtin_workload_declares_a_schema(self):
        # The redesign's point: no more silently-ignored params anywhere.
        for name in workload_names():
            assert isinstance(WORKLOADS[name]["schema"], dict), name

    def test_run_sees_schema_defaults_the_spec_omits(self):
        # Defaults are filled at read time, from the schema alone ...
        spec = ExperimentSpec("echo-rtt", params={"count": 3})
        metrics = run_spec(spec)["metrics"]
        assert metrics["message_size"] == 64
        assert spec_params(spec) == {"message_size": 64, "count": 3}
        # ... and never written into the spec, so its identity holds.
        assert spec.params == {"count": 3}
        assert spec.run_id != ExperimentSpec(
            "echo-rtt", params={"count": 3, "message_size": 64}).run_id


class TestCheckParams:
    SCHEMA = {
        "n_ops": {"type": "int", "default": 40},
        "rate": {"type": "number", "default": 1.5},
        "label": {"type": "str"},
        "strict": {"type": "bool", "default": True},
        "counters": {"type": "list"},
    }

    def test_fitting_params_pass(self):
        assert check_params({"n_ops": 10, "rate": 2,  # int ok for number
                             "label": "x", "strict": False,
                             "counters": ["a"]}, self.SCHEMA) is None
        assert check_params({}, self.SCHEMA) is None

    def test_unknown_param_named_in_error(self):
        reason = check_params({"n_opps": 10}, self.SCHEMA)
        assert "unknown param 'n_opps'" in reason
        assert "n_ops" in reason  # the error lists what IS accepted

    def test_bool_is_not_an_int(self):
        reason = check_params({"n_ops": True}, self.SCHEMA)
        assert "must be int, got bool" in reason

    def test_bool_is_not_a_number(self):
        assert "got bool" in check_params({"rate": True}, self.SCHEMA)

    def test_str_is_not_a_number(self):
        assert "must be number" in check_params({"rate": "fast"},
                                                self.SCHEMA)

    def test_schema_summary_renders_types_and_defaults(self):
        line = schema_summary(self.SCHEMA)
        assert "n_ops:int=40" in line
        assert "rate:number=1.5" in line
        assert "label:str" in line
        assert "counters:list" in line
        assert schema_summary({}) == "(no params)"


class TestValidateSpecGating:
    def test_unknown_param_rejected_before_workload_validate(self):
        spec = ExperimentSpec(workload="kv", params={"n_opps": 10})
        assert "unknown param" in validate_spec(spec)

    def test_type_mismatch_rejected(self):
        spec = ExperimentSpec(workload="kv", params={"n_ops": "forty"})
        assert "must be int" in validate_spec(spec)

    def test_proto_slo_accepts_a_good_spec(self):
        spec = ExperimentSpec(workload="proto-slo",
                              params={"protocol": "memcached",
                                      "base_rate_ops_per_s": 100000})
        assert validate_spec(spec) is None

    def test_proto_slo_rejects_unknown_protocol(self):
        spec = ExperimentSpec(workload="proto-slo",
                              params={"protocol": "http3"})
        assert "protocol" in validate_spec(spec)

    def test_proto_slo_rejects_sharded_posix(self):
        spec = ExperimentSpec(workload="proto-slo", libos="posix", cores=2)
        assert validate_spec(spec) is not None

    def test_every_workload_takes_a_fault_plan(self):
        # No workload is a "performance bench, fault_plan must be
        # 'none'" any more: each runs through the scenario driver.
        for workload, libos in (("kv-scaling", "dpdk"), ("echo-rtt", "mtcp"),
                                ("kv-rtt", "posix"), ("kv-offload", "dpdk"),
                                ("storelog-scan", "spdk"),
                                ("proto-slo", "dpdk")):
            spec = ExperimentSpec(workload=workload, libos=libos,
                                  fault_plan="reorder-dup-storm")
            assert validate_spec(spec) is None, workload


#: the six workloads that used to refuse every plan but "none", each with
#: params that keep the run short
FORMERLY_PLANLESS = [
    ("kv-scaling", "dpdk", 2, {"n_ops": 30}),
    ("echo-rtt", "posix", 1, {}),
    ("kv-rtt", "dpdk", 1, {}),
    ("kv-offload", "dpdk", 1, {"n_gets": 40}),
    ("storelog-scan", "spdk", 1, {"n_records": 60}),
    ("proto-slo", "dpdk", 2, {"duration_ms": 4, "load_fractions": [0.5]}),
]


@pytest.mark.parametrize("workload,libos,cores,params", FORMERLY_PLANLESS)
def test_formerly_planless_workloads_run_under_a_golden_plan(
        workload, libos, cores, params):
    # Whether the run is sound under reordering + duplication is the
    # robustness matrix's question; here: it comes back as a row with a
    # verdict, never as an exception.
    out = run_spec(ExperimentSpec(workload, libos=libos, cores=cores,
                                  fault_plan="reorder-dup-storm",
                                  params=params))
    assert set(out) == {"metrics", "ok", "failures"}
    assert out["ok"] == (not out["failures"])
    assert all(isinstance(failure, str) for failure in out["failures"])


class TestExpListCli:
    def test_list_prints_workloads_and_schemas(self, capsys):
        assert main(["exp", "list"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out
        # The schema table is there with its name:type=default entries.
        assert "workload params" in out
        assert "protocol:str='resp'" in out
        assert "n_ops:int=40" in out
