"""The committed spec files and trajectories, as the repo's own oracle.

``repro exp run <spec> -o <BENCH file>`` is the only producer of a
``BENCH_*.json``, so every one of them must be an ``experiment``
trajectory that validates; and a ``run_id`` names a run in those files
and in ``--resume`` bookkeeping, so a refactoring of the harness must not
move one (schema defaults are filled in when a workload reads its
params, never written into the spec).
"""

import glob
import hashlib
import json
import os

import pytest

from repro.experiments import check_payload, load_spec_file

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: spec file -> (runs, first run_id, sha256 of the comma-joined run_ids)
#: as expanded by the commit before ``repro bench`` was retired.  Only
#: kv_scaling.json differs from it: it had the 1- and 4-core runs then,
#: which the full sweep keeps (below).  chaos_battery.json has since
#: gained the ``vfs`` kind's six runs; its 72 earlier run ids are kept.
PINNED_RUN_IDS = {
    "chaos_battery.json": (78, "cc22f7288956", "54c959089c738308"),
    "ci_matrix.json": (8, "280c95a97cc3", "c7e9bd756d6fca55"),
    "kv_offload.json": (4, "04cc84087c2e", "69a9f0cbc18205f2"),
    "kv_scaling.json": (6, "c52e2036478f", "d6e394ad0f8f7961"),
    "protocol_slo.json": (6, "6420127d25a0", "9926816ed1e83cbb"),
    "replication_chaos.json": (9, "32620a70fd8d", "d578041c2a2dd906"),
}


def bench_files():
    return sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
                  if not os.path.basename(p).startswith("BENCH_ci_"))


def test_the_baselines_are_found():
    assert "BENCH_kv_scaling.json" in bench_files()


@pytest.mark.parametrize("name", bench_files())
def test_every_baseline_is_a_valid_experiment_trajectory(name):
    with open(os.path.join(ROOT, name)) as fh:
        payload = json.load(fh)
    assert isinstance(payload, list) and payload
    assert {doc["bench"] for doc in payload} == {"experiment"}
    assert check_payload(payload) == []


def test_every_spec_file_is_pinned():
    specs = sorted(os.path.basename(p) for p in
                   glob.glob(os.path.join(ROOT, "experiments", "*.json")))
    assert specs == sorted(PINNED_RUN_IDS)


@pytest.mark.parametrize("name", sorted(PINNED_RUN_IDS))
def test_spec_files_expand_to_the_pinned_run_ids(name):
    runs, first, digest = PINNED_RUN_IDS[name]
    ids = [spec.run_id for spec in
           load_spec_file(os.path.join(ROOT, "experiments", name)).specs]
    assert len(ids) == runs and ids[0] == first, ids
    assert hashlib.sha256(
        ",".join(ids).encode()).hexdigest()[:16] == digest, ids
    if name == "kv_scaling.json":
        assert (ids[0], ids[2]) == ("c52e2036478f", "c8a9ad439167")
