"""Tests for the bench validator's v2 schema and trajectory mode."""

import copy
import json

import pytest

from repro.bench.runners import PER_OP_BUDGET_NS, kv_scaling_document
from repro.cli import main
from repro.experiments.schema import check_kv_scaling_document, check_payload

check_document = check_kv_scaling_document


def check_main(argv):
    return main(["exp", "validate"] + argv)


@pytest.fixture(scope="module")
def doc():
    return kv_scaling_document(core_counts=(1, 2), n_ops=30, seed=7)


class TestSchemaV2:
    def test_generated_document_is_valid(self, doc):
        assert check_document(doc) == []
        assert doc["schema_version"] == 2
        assert doc["params"]["per_op_budget_ns"] == PER_OP_BUDGET_NS

    def test_v2_requires_budget_param(self, doc):
        broken = copy.deepcopy(doc)
        del broken["params"]["per_op_budget_ns"]
        assert any("per_op_budget_ns" in e for e in check_document(broken))

    def test_v2_requires_cost_columns(self, doc):
        broken = copy.deepcopy(doc)
        del broken["rows"][0]["per_op_server_cpu_ns"]
        assert any("missing keys" in e for e in check_document(broken))

    def test_cost_budget_regression_flagged(self, doc):
        broken = copy.deepcopy(doc)
        row = broken["rows"][1]
        limit = (broken["params"]["per_op_budget_ns"]
                 + broken["params"]["per_op_setup_allowance_ns"]
                 * row["cores"] / row["requests"])
        row["per_op_server_cpu_ns"] = limit + 1
        errors = check_document(broken)
        assert any("exceeds" in e and "budget" in e for e in errors)

    def test_setup_allowance_forgives_short_runs(self, doc):
        # A cold-start-heavy row stays valid as long as the overage is
        # within the amortized per-shard allowance.
        tweaked = copy.deepcopy(doc)
        row = tweaked["rows"][0]
        row["per_op_server_cpu_ns"] = (
            tweaked["params"]["per_op_budget_ns"]
            + tweaked["params"]["per_op_setup_allowance_ns"]
            * row["cores"] / row["requests"] - 1)
        assert check_document(tweaked) == []

    def test_nonpositive_budget_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["params"]["per_op_budget_ns"] = 0
        assert any("positive" in e for e in check_document(broken))

    def test_negative_setup_allowance_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["params"]["per_op_setup_allowance_ns"] = -5
        assert any("non-negative" in e for e in check_document(broken))

    def test_v1_documents_still_accepted(self, doc):
        old = copy.deepcopy(doc)
        old["schema_version"] = 1
        for row in old["rows"]:
            for key in ("per_op_server_cpu_ns", "doorbells",
                        "doorbells_saved", "requests_per_wakeup"):
                del row[key]
        del old["params"]["per_op_budget_ns"]
        del old["params"]["per_op_setup_allowance_ns"]
        assert check_document(old) == []

    def test_unknown_version_rejected(self, doc):
        broken = copy.deepcopy(doc)
        broken["schema_version"] = 3
        assert any("schema_version" in e for e in check_document(broken))


class TestTrajectories:
    def test_list_of_valid_documents_passes(self, doc):
        assert check_payload([doc, copy.deepcopy(doc)]) == []

    def test_errors_carry_the_document_index(self, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][0]["wasted_wakeups"] = 3
        errors = check_payload([doc, broken])
        assert errors
        assert all(e.startswith("doc[1]: ") for e in errors)

    def test_empty_trajectory_rejected(self):
        assert check_payload([]) == ["trajectory is empty"]

    def test_single_document_payload_unchanged(self, doc):
        assert check_payload(doc) == check_document(doc)


class TestCliAppendMode:
    def _run(self, path, extra=()):
        assert main(["bench", "kv-scaling", "--cores", "1,2",
                     "--ops", "30", "--seed", "7",
                     "-o", str(path)] + list(extra)) == 0

    def test_append_builds_a_trajectory(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        self._run(out)
        first = json.loads(out.read_text())
        assert isinstance(first, dict)
        self._run(out, ["--append"])
        traj = json.loads(out.read_text())
        assert isinstance(traj, list) and len(traj) == 2
        self._run(out, ["--append"])
        traj = json.loads(out.read_text())
        assert len(traj) == 3
        assert check_payload(traj) == []
        capsys.readouterr()

    def test_without_append_overwrites(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        self._run(out)
        self._run(out)
        assert isinstance(json.loads(out.read_text()), dict)
        capsys.readouterr()

    def test_checker_cli_accepts_trajectory_file(self, tmp_path, capsys,
                                                 doc):
        out = tmp_path / "traj.json"
        out.write_text(json.dumps([doc, doc]))
        assert check_main([str(out)]) == 0
        assert "2 documents" in capsys.readouterr().out

    def test_checker_cli_rejects_bad_file(self, tmp_path, capsys, doc):
        broken = copy.deepcopy(doc)
        broken["rows"][0]["cross_shard_wakeups"] = 1
        out = tmp_path / "bad.json"
        out.write_text(json.dumps(broken))
        assert check_main([str(out)]) == 1
        assert "cross-shard" in capsys.readouterr().err
