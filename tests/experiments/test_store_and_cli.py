"""Atomic persistence and the ``repro exp`` CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.experiments import append_document, atomic_write_json


class TestAtomicWrite:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_no_temp_litter_on_success(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), [1, 2, 3])
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_serialization_failure_preserves_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), {"committed": True})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        # The committed baseline is intact and no temp file remains.
        assert json.loads(path.read_text()) == {"committed": True}
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_append_promotes_single_document(self, tmp_path):
        path = tmp_path / "traj.json"
        atomic_write_json(str(path), {"bench": "x", "n": 1})
        traj = append_document(str(path), {"bench": "x", "n": 2})
        assert [d["n"] for d in traj] == [1, 2]
        assert json.loads(path.read_text()) == traj

    def test_append_starts_fresh_trajectory(self, tmp_path):
        path = tmp_path / "traj.json"
        traj = append_document(str(path), {"n": 1})
        assert traj == [{"n": 1}]


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_BATCH = {
    "name": "cli-fast",
    "budgets": {"throughput_ops_per_s": {"min": 1}},
    "experiments": [
        {"matrix": {"base": {"workload": "kv", "seed": 7,
                             "params": {"n_ops": 15, "n_keys": 8}},
                    "axes": {"libos": ["dpdk", "posix"],
                             "cores": [1, 2],
                             "fault_plan": ["reorder-dup-storm"]}}},
    ],
}


class TestExpCli:
    def test_run_appends_a_validated_trajectory(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, FAST_BATCH)
        out = tmp_path / "BENCH_exp.json"
        assert main(["exp", "run", spec, "-o", str(out)]) == 0
        traj = json.loads(out.read_text())
        assert isinstance(traj, list) and len(traj) == 1
        doc = traj[0]
        assert doc["bench"] == "experiment"
        assert doc["name"] == "cli-fast"
        assert len(doc["rows"]) == 4
        assert {r["libos"] for r in doc["rows"]} == {"dpdk", "posix"}
        assert {r["cores"] for r in doc["rows"]} == {1, 2}
        assert all(r["fault_plan"] == "reorder-dup-storm"
                   for r in doc["rows"])
        capsys.readouterr()

    def test_run_twice_appends_two_documents(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, FAST_BATCH)
        out = tmp_path / "BENCH_exp.json"
        assert main(["exp", "run", spec, "-o", str(out)]) == 0
        assert main(["exp", "run", spec, "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2
        capsys.readouterr()

    def test_resume_skips_completed_runs(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, FAST_BATCH)
        out = tmp_path / "BENCH_exp.json"
        assert main(["exp", "run", spec, "-o", str(out)]) == 0
        assert main(["exp", "run", spec, "-o", str(out), "--resume"]) == 0
        stdout = capsys.readouterr().out
        assert "4 cached" in stdout
        traj = json.loads(out.read_text())
        assert (json.dumps(traj[0]["rows"], sort_keys=True)
                == json.dumps(traj[1]["rows"], sort_keys=True))

    def test_violated_budget_blocks_the_append(self, tmp_path, capsys):
        bad = dict(FAST_BATCH, budgets={"rtt_mean_ns": {"max": 1}})
        spec = _write_spec(tmp_path, bad)
        out = tmp_path / "BENCH_exp.json"
        assert main(["exp", "run", spec, "-o", str(out)]) == 1
        assert not out.exists()
        assert "exceeds" in capsys.readouterr().err

    def test_validate_accepts_good_rejects_bad(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, FAST_BATCH)
        out = tmp_path / "BENCH_exp.json"
        assert main(["exp", "run", spec, "-o", str(out)]) == 0
        assert main(["exp", "validate", str(out), spec]) == 0
        traj = json.loads(out.read_text())
        traj[0]["rows"][0]["metrics"]["throughput_ops_per_s"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(traj))
        assert main(["exp", "validate", str(bad)]) == 1
        assert "below" in capsys.readouterr().err

    def test_validate_accepts_kv_scaling_baseline(self, capsys):
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        baseline = os.path.join(root, "BENCH_kv_scaling.json")
        assert main(["exp", "validate", baseline]) == 0
        capsys.readouterr()

    def test_validate_rejects_bad_spec_file(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, {"workload": "kv",
                                      "fault_plan": "no-such-plan"})
        assert main(["exp", "validate", spec]) == 1
        assert "fault_plan" in capsys.readouterr().err

    def test_list_expands_a_spec_file(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, FAST_BATCH)
        assert main(["exp", "list", spec]) == 0
        assert "4 runs" in capsys.readouterr().out

    def test_list_shows_the_registry(self, capsys):
        assert main(["exp", "list"]) == 0
        stdout = capsys.readouterr().out
        for workload in ("kv", "kv-scaling", "chaos", "echo-rtt", "kv-rtt"):
            assert workload in stdout


class TestAppendAtomicity:
    def test_append_interrupted_write_cannot_truncate(self, tmp_path,
                                                      monkeypatch, capsys):
        """A crash mid-append leaves the committed trajectory intact."""
        import repro.experiments.store as store

        spec = _write_spec(tmp_path, {"workload": "kv-scaling",
                                      "params": {"n_ops": 10}})
        out = tmp_path / "bench.json"
        args = ["exp", "run", spec, "-o", str(out)]
        assert main(args) == 0
        committed = out.read_text()

        real_fsync = os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("simulated crash at the durability barrier")

        monkeypatch.setattr(store.os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            main(args)
        # the old committed document is byte-identical, no temp litter
        assert out.read_text() == committed
        assert sorted(os.listdir(tmp_path)) == ["bench.json", "spec.json"]
        capsys.readouterr()
