"""The scaling sweep's gates, stated as data on an ``experiment`` document.

What the ``kv_scaling`` document kind checked with its own code - zero
wasted / cross-shard wake-ups, per-op server CPU under the amortized
budget, throughput strictly increasing with the shard count - is the
``budgets`` / ``monotonic`` block of ``experiments/kv_scaling.json``;
these tests pin that the one ``experiment`` checker enforces each of
them, on a two-point miniature of the sweep.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.experiments import (Runner, check_document, check_payload,
                               load_spec_file, trajectory_document)

N_OPS = 30
#: marginal per-op server-CPU budget plus each shard's amortized
#: connection setup (ARP + accept + first touch, ~110 us), the formula
#: experiments/kv_scaling.json states for its 200-op runs
BUDGET_NS = 4200 + 120_000 / N_OPS

BATCH = {
    "name": "kv-scaling-mini",
    "budgets": {
        "per_op_server_cpu_ns": {"max": BUDGET_NS},
        "wasted_wakeups": {"max": 0},
        "cross_shard_wakeups": {"max": 0},
        "misrouted_requests": {"max": 0},
    },
    "monotonic": [
        {"metric": "throughput_ops_per_s", "by": "cores", "group_by": []},
    ],
    "experiments": [
        {"matrix": {"base": {"workload": "kv-scaling", "seed": 7,
                             "params": {"n_ops": N_OPS}},
                    "axes": {"cores": [1, 2]}}},
    ],
}


def check_main(argv):
    return main(["exp", "validate"] + argv)


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(BATCH))
    batch = load_spec_file(str(path))
    return trajectory_document(batch, Runner().run(batch.specs))


class TestScalingGates:
    def test_generated_document_is_valid(self, doc):
        assert check_document(doc) == []
        assert doc["bench"] == "experiment"
        assert doc["params"]["budgets"] == BATCH["budgets"]

    def test_kv_scaling_kind_is_unknown(self, doc):
        old = {"bench": "kv_scaling", "schema_version": 2, "seed": 7,
               "params": {"per_op_budget_ns": 4200},
               "rows": [r["metrics"] for r in doc["rows"]]}
        assert check_document(old) == [
            "unknown bench 'kv_scaling' (have: experiment)"]

    def test_budgeted_column_must_be_present(self, doc):
        broken = copy.deepcopy(doc)
        del broken["rows"][0]["metrics"]["per_op_server_cpu_ns"]
        assert any("per_op_server_cpu_ns" in e and "missing" in e
                   for e in check_document(broken))

    def test_cost_budget_regression_flagged(self, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][1]["metrics"]["per_op_server_cpu_ns"] = BUDGET_NS + 1
        errors = check_document(broken)
        assert any("exceeds" in e and "budget" in e for e in errors)

    def test_setup_allowance_forgives_short_runs(self, doc):
        # A cold-start-heavy row stays valid as long as the overage is
        # within the amortized per-shard allowance.
        tweaked = copy.deepcopy(doc)
        tweaked["rows"][0]["metrics"]["per_op_server_cpu_ns"] = BUDGET_NS - 1
        assert check_document(tweaked) == []

    def test_malformed_budget_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["params"]["budgets"]["per_op_server_cpu_ns"] = "4800"
        assert any("expected a number" in e for e in check_document(broken))

    def test_flat_throughput_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][1]["metrics"]["throughput_ops_per_s"] = (
            broken["rows"][0]["metrics"]["throughput_ops_per_s"])
        assert any("not strictly increasing" in e
                   for e in check_document(broken))

    def test_wake_hygiene_failure_fails_the_row(self, doc):
        # The workload itself reports these; the document gate is that
        # no row may carry a failure.
        broken = copy.deepcopy(doc)
        broken["rows"][0]["ok"] = False
        broken["rows"][0]["failures"] = ["qtoken identity violated"]
        assert any("qtoken identity" in e for e in check_document(broken))

    def test_unknown_version_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["schema_version"] = 3
        assert any("schema_version" in e for e in check_document(broken))


class TestTrajectories:
    def test_list_of_valid_documents_passes(self, doc):
        assert check_payload([doc, copy.deepcopy(doc)]) == []

    def test_errors_carry_the_document_index(self, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][0]["metrics"]["wasted_wakeups"] = 3
        errors = check_payload([doc, broken])
        assert errors
        assert all(e.startswith("doc[1]: ") for e in errors)

    def test_empty_trajectory_rejected(self):
        assert check_payload([]) == ["trajectory is empty"]

    def test_single_document_payload_unchanged(self, doc):
        assert check_payload(doc) == check_document(doc)


class TestCli:
    def _run(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(BATCH))
        out = tmp_path / "bench.json"
        assert main(["exp", "run", str(spec), "-o", str(out)]) == 0
        return out

    def test_every_run_appends_to_the_trajectory(self, tmp_path, capsys):
        out = self._run(tmp_path)
        first = json.loads(out.read_text())
        assert isinstance(first, list) and len(first) == 1
        self._run(tmp_path)
        self._run(tmp_path)
        traj = json.loads(out.read_text())
        assert len(traj) == 3
        assert traj[0] == first[0] == traj[2]
        assert check_payload(traj) == []
        capsys.readouterr()

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "kv-scaling", "-o", "unused.json"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_checker_cli_accepts_trajectory_file(self, tmp_path, capsys,
                                                 doc):
        out = tmp_path / "traj.json"
        out.write_text(json.dumps([doc, doc]))
        assert check_main([str(out)]) == 0
        assert "2 documents" in capsys.readouterr().out

    def test_checker_cli_rejects_bad_file(self, tmp_path, capsys, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][0]["metrics"]["cross_shard_wakeups"] = 1
        out = tmp_path / "bad.json"
        out.write_text(json.dumps(broken))
        assert check_main([str(out)]) == 1
        assert "cross_shard_wakeups" in capsys.readouterr().err
