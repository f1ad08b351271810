"""The workload table and its param schemas.

The registry replaced stringly-typed dispatch: ``WORKLOADS`` is one
literal table whose entries name a scenario row, whether ``cores`` may
exceed 1, a declared param schema and optionally a check and a ``run``,
and validate_spec rejects unknown params and type mismatches before a
single sim tick.  These tests check the table's own shape, the schema
checking rules (bool is not an int), and the chaos and proto-slo
workloads' own gates.
"""

import pytest

from repro.cli import main
from repro.experiments import (ExperimentSpec, execute_spec, run_spec,
                               validate_spec)
from repro.experiments.workloads import (_SCHEMA_TYPES, WORKLOADS,
                                         check_params, schema_summary,
                                         spec_params, workload_names)
from repro.testing import GOLDEN_SCENARIOS
from repro.testing import WORKLOADS as SCENARIO_ROWS


class TestTheTable:
    def test_every_entry_has_the_tables_fields(self):
        for name, entry in WORKLOADS.items():
            assert {"row", "multicore", "blurb", "schema"} <= set(entry) \
                <= {"row", "multicore", "blurb", "schema", "check", "run"}, \
                name
            assert isinstance(entry["multicore"], bool), name

    def test_every_schema_type_is_a_schema_type_name(self):
        for name, entry in WORKLOADS.items():
            for key, param in entry["schema"].items():
                assert param["type"] in _SCHEMA_TYPES, (name, key)

    def test_every_static_row_is_a_scenario_row(self):
        rows = [entry["row"] for entry in WORKLOADS.values()
                if not callable(entry["row"])]
        assert rows and set(rows) <= set(SCENARIO_ROWS)

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
                                ("kv-rtt", "kernel"), ("kv-offload", "dpdk"),
                                ("storelog-scan", "spdk"),
                                ("proto-slo", "dpdk")):
            spec = ExperimentSpec(workload=workload, libos=libos,
                                  fault_plan="reorder-dup-storm")
            assert validate_spec(spec) is None, workload


#: the six workloads that used to refuse every plan but "none", each with
#: params that keep the run short
FORMERLY_PLANLESS = [
    ("kv-scaling", "dpdk", 2, {"n_ops": 30}),
    ("echo-rtt", "kernel", 1, {}),
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


#: every stack kind a scenario row names: what ``ExperimentSpec.libos``
#: takes
KINDS = ("kernel", "mtcp", "posix", "dpdk", "rdma", "spdk", "vfs")

#: (workload, cores, fault_plan) -> the scenario row it runs; chaos runs
#: the golden scenario its fault_plan names, proto-slo its sharded row at
#: cores > 1
ROW_OF = [(("kv", 1, "none"), "kv-concurrent"),
          (("kv", 2, "none"), "kv-concurrent"),
          (("kv-scaling", 2, "none"), "kv-sharded"),
          (("echo-rtt", 1, "none"), "echo-rtt"),
          (("kv-rtt", 1, "none"), "kv-rtt"),
          (("kv-offload", 1, "none"), "kv-udp"),
          (("storelog-scan", 1, "none"), "log-scan"),
          (("storage", 1, "none"), "storage"),
          (("proto-slo", 1, "none"), "open-loop"),
          (("proto-slo", 2, "none"), "open-loop-sharded")] + [
          (("chaos", 1, name), name) for name in sorted(GOLDEN_SCENARIOS)]


class TestOneVocabulary:
    def test_the_table_covers_every_workload_and_kind(self):
        assert {workload for (workload, _c, _p), _row in ROW_OF} \
            == set(workload_names())
        assert {kind for row in SCENARIO_ROWS.values()
                for kind in row["kinds"]} == set(KINDS)

    @pytest.mark.parametrize("cell,row", ROW_OF,
                             ids=["%s-%d-%s" % (w, c, "" if p == "none" else p)
                                  for (w, c, p), _row in ROW_OF])
    def test_a_workload_runs_on_exactly_its_rows_kinds(self, cell, row):
        workload, cores, plan = cell
        row_kinds = (GOLDEN_SCENARIOS.get(row) or SCENARIO_ROWS[row])["kinds"]
        accepted = tuple(kind for kind in KINDS
                         if validate_spec(ExperimentSpec(
                             workload, libos=kind, cores=cores,
                             fault_plan=plan)) is None)
        assert set(accepted) == set(row_kinds)

    @pytest.mark.parametrize("plan", ["none", {"seed": 7, "events": []}],
                             ids=["none", "inline"])
    def test_chaos_needs_a_golden_scenarios_name(self, plan):
        # The plan is the scenario: no name, nothing to run, on any kind.
        for kind in KINDS:
            reason = validate_spec(ExperimentSpec("chaos", libos=kind,
                                                  fault_plan=plan))
            assert "golden scenario's name" in reason, kind

    def test_a_plan_resolves_for_the_kind_the_spec_names(self):
        # The POSIX libOS under a golden plan pinned per kind: the spec's
        # libos is the kind the plan is sized for.
        assert validate_spec(ExperimentSpec(
            "echo-rtt", libos="posix", fault_plan="crash-mid-stream")) is None

    def test_kernel_and_posix_name_different_stacks(self):
        kernel, posix = (run_spec(ExperimentSpec(
            "echo-rtt", libos=kind, params={"count": 3}))["metrics"]
            for kind in ("kernel", "posix"))
        assert kernel["rtt_mean_ns"] != posix["rtt_mean_ns"]


class TestRowSchemas:
    def test_a_workload_schema_is_its_rows_params(self):
        # Every default a leg takes is written once, on its scenario row.
        for workload, row, sets in (("echo-rtt", "echo-rtt", ()),
                                    ("kv-rtt", "kv-rtt", ()),
                                    ("kv-scaling", "kv-sharded", ()),
                                    ("kv", "kv-concurrent", ("n_clients",)),
                                    ("kv-offload", "kv-udp", ("nic_program",)),
                                    ("storelog-scan", "log-scan",
                                     ("on_device",)),
                                    ("storage", "storage", ()),
                                    ("proto-slo", "open-loop",
                                     ("rate_ops_per_s",))):
            schema = WORKLOADS[workload]["schema"]
            for key, default in SCENARIO_ROWS[row]["params"].items():
                if key in sets:
                    assert key not in schema, (workload, key)
                else:
                    assert schema[key]["default"] == default, (workload, key)

    def test_the_open_loop_defaults_are_load_configs(self):
        from dataclasses import fields

        from repro.bench.loadgen import LoadConfig

        schema = WORKLOADS["proto-slo"]["schema"]
        for knob in fields(LoadConfig):
            if knob.name != "rate_ops_per_s":
                assert schema[knob.name]["default"] == knob.default


class TestDeviceFaults:
    def test_a_fault_on_a_device_the_stack_lacks_fails_the_row(self):
        # link-flap is pinned to client.eth0 on any kind but dpdk; the
        # mTCP world's NIC is client.dpdk0, so the flap lands nowhere.
        spec = ExperimentSpec("echo-rtt", libos="mtcp",
                              fault_plan="link-flap", params={"count": 3})
        with pytest.raises(ValueError, match="nic_link_flap.*client.dpdk0"):
            run_spec(spec)
        row = execute_spec(spec)
        assert (row["status"], row["ok"]) == ("failed", False)
        assert "client.eth0" in row["failures"][0]
