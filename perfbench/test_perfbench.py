"""Miniatures of every workload through the benchmark's own code path.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest perfbench/test_perfbench.py``.
"""

import json
import os
import re

import pytest

from perfbench import run, workloads

#: each workload shrunk to about 100 ops
SCALE = {
    "kv-closed-dpdk-4shard": 0.03,
    "resp-open-dpdk": 0.03,
    "memcached-open-posix": 0.03,
    "kv-replicated-rdma-failover": 0.04,
    "storelog-spdk-append-scan": 0.003,
    "resp-open-dpdk-lossy": 0.03,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(workloads.NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json")) < 65536


@pytest.mark.parametrize("name", workloads.NAMES)
def test_miniature_is_correct_and_repeats(name, spec):
    traced = run.run_workload(name, 7, 0.0, True, scale=SCALE[name])
    assert traced["problems"] == []   # includes the layer-sum identity
    assert traced["correct"] and traced["failed"] == 0
    assert 50 <= traced["attempted"] <= 300
    layers = run.attach_units(traced["metrics"], spec["per_layer"])
    json.dumps(layers)   # every value is a plain number
    parts = sum(v["value"] for k, v in layers.items()
                if k.endswith(".sim_cpu_ns_per_op"))
    assert parts > 0
    assert layers["memory.live_buffers_at_end"]["value"] == 0
    assert layers["core.qtokens_in_flight_at_end"]["value"] == 0

    first = run.run_workload(name, 7, 0.0, False, scale=SCALE[name])
    again = run.run_workload(name, 7, 0.0, False, scale=SCALE[name])
    run.attach_units(first["metrics"], spec["end_to_end"])
    assert first["correct"] and again["correct"]
    assert parts == pytest.approx(
        first["metrics"]["sim_server_cpu_ns_per_op"], rel=1e-12)
    for metric, value in first["metrics"].items():
        assert value > 0, metric
        if metric.startswith("sim_"):
            assert again["metrics"][metric] == value, metric
    other_seed = run.run_workload(name, 11, 0.0, False, scale=SCALE[name])
    assert other_seed["correct"]
