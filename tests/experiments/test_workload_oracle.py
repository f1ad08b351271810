"""The workload oracle: every registered workload's metrics, pinned.

Every simulated run is a pure function of its seed, so a digest of
``run_spec(...)["metrics"]`` is a free refactoring oracle.  The hashes
below were recorded at commit cad7602, before the workloads moved onto
``run_scenario`` (the ten cells whose numbers run TCP were re-recorded
when ACKs began to ride on the reply: every RTT and rate in them moved;
``storelog-scan/spdk`` when the host scan began to read each flushed block
once instead of once per record, and again when a read-span miss began
to read ahead - 9 host reads became 1: its ``*_host``
metrics moved, the device side did not; ``kv``, ``kv-rtt``,
``kv-scaling`` and ``proto-slo`` on dpdk when every dpdk libOS began to
ring one doorbell per TX burst and amortise its RX bursts: their times,
rates and server CPU moved, ``kv-offload/dpdk`` sends too few frames at
once to move):
the sha256 of the canonical JSON of the metrics of every registered
workload on every flavor it validates for, at schema defaults and seed 7.  This is the only pin on ``echo-rtt`` (5 flavors)
and ``kv-rtt`` (2), which no committed trajectory covers.  ``chaos`` has
no defaults that validate (it needs a scenario); the golden table pins
it instead.

A hash that moves means a simulated number moved.  Re-record one only
for a change that is meant to move it, and say which metric and why.
"""

import hashlib
import json

import pytest

from repro.experiments import (ExperimentSpec, run_spec, validate_spec,
                               workload_names)

FLAVORS = ("dpdk", "posix", "rdma", "spdk", "mtcp", "posix-libos")

ORACLE = {
    "echo-rtt/dpdk":
        "661d0783e8c6164aaf4b4a6bec837f4adc626614b9f132c385380b766d7f2097",
    "echo-rtt/mtcp":
        "bc043ab5e1cfd59de30202cf9e6ae8a5d2accac015928dc6ed573b7996cdf40d",
    "echo-rtt/posix":
        "02438cfa0e7e55b0d6eccd68bb80b0a23e7731116bb570c37b9dfeb129988ec7",
    "echo-rtt/posix-libos":
        "367c8f154c95171bb3e9868def8c0d8f980ee913f13809e95624dc78fb3b3c46",
    "echo-rtt/rdma":
        "280fcf57b4730033f1576d15a1801a08c41b6f69c787af1187df6a27f6ca02f1",
    "kv-offload/dpdk":
        "3dbed5a869c258861b930aed9d4c6d582153706cb965a49d92075e8ddb8ae234",
    "kv-rtt/dpdk":
        "21c2045b2113b4f1240b8eadd6efa28d859e7fb1d017c570d6df2dd24b6c95bb",
    "kv-rtt/posix":
        "2f0a6dcc13170b5d2a29ae2cc45d4e32e1d2ddaa4c6acd4fff857a7e33c8e837",
    "kv-scaling/dpdk":
        "b21857add8027ad5d887cb0d5873fb4e2426a5e6dd99779449f2abdd9ec95b7f",
    "kv/dpdk":
        "434586f1cf34695dba6adf2acbc8d6129a7f2fb6541700aeedefc9fb365f50b2",
    "kv/posix":
        "7ec6856c43aa141f8b6cb196c0a01449540dd136c46741ba740ec6b763bf7b55",
    "kv/rdma":
        "eb7d23e8c2ac4c9124d7a91e5c7863ef3add7f8e8cd8a8a45108ef162f65c963",
    "proto-slo/dpdk":
        "81b49d7bd39b2d3ec24d718f0fe9659ba1e556249749f47122536bebf03a0355",
    "proto-slo/posix":
        "b42fb6b70523714e53caaf4db9e8fd140b25bc3b300bc918a9f28831e8688189",
    "storelog-scan/spdk":
        "8292d8375aa436156acec7f1e253a7f10699d4716250e294e38d03df28b599aa",
}


def default_spec(cell: str) -> ExperimentSpec:
    workload, flavor = cell.split("/")
    return ExperimentSpec(workload, libos=flavor, seed=7)


def test_the_oracle_covers_every_cell_that_validates():
    cells = {"%s/%s" % (workload, flavor)
             for workload in workload_names() for flavor in FLAVORS
             if validate_spec(ExperimentSpec(workload, libos=flavor,
                                             seed=7)) is None}
    assert cells == set(ORACLE)


@pytest.mark.parametrize("cell", sorted(ORACLE))
def test_metrics_are_what_they_were(cell):
    out = run_spec(default_spec(cell))
    assert out["ok"], out["failures"]
    canonical = json.dumps(out["metrics"], sort_keys=True,
                           separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ORACLE[cell]
