"""The workload oracle: every registered workload's metrics, pinned.

Every simulated run is a pure function of its seed, so a digest of
``run_spec(...)["metrics"]`` is a free refactoring oracle.  The hashes
below were recorded at commit cad7602, before the workloads moved onto
``run_scenario``: the sha256 of the canonical JSON of the metrics of
every registered workload on every flavor it validates for, at schema
defaults and seed 7.  This is the only pin on ``echo-rtt`` (5 flavors)
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
        "324e48d8e2f84be278782974d7cf7eda08e26cc1816ae5ffd56ae182c50ba9fb",
    "echo-rtt/mtcp":
        "bc043ab5e1cfd59de30202cf9e6ae8a5d2accac015928dc6ed573b7996cdf40d",
    "echo-rtt/posix":
        "af20e245f57df8c4e682b46b578c4ce7f33c6b969f8e643588b537d352949c17",
    "echo-rtt/posix-libos":
        "e90ded5b40857fc16813b4b81fff315b93b0b91bd964a08213e7d2e7c8d05d0f",
    "echo-rtt/rdma":
        "280fcf57b4730033f1576d15a1801a08c41b6f69c787af1187df6a27f6ca02f1",
    "kv-offload/dpdk":
        "3dbed5a869c258861b930aed9d4c6d582153706cb965a49d92075e8ddb8ae234",
    "kv-rtt/dpdk":
        "33021c4f878158b13714b197d5733cc2c7dff4b8dc63e9764868782729e93958",
    "kv-rtt/posix":
        "705680dc291b3a6608c31fa1f25a5f0053212e7a4a73a09fbce100584f5b769f",
    "kv-scaling/dpdk":
        "637827a5f4b1a0f42775cf614711437a3fd6babca7ad93cc1b90ed5185aeadc9",
    "kv/dpdk":
        "338323e5a3863da84436ff8074ebf850ba16210301bfe0c225c426a1d330938d",
    "kv/posix":
        "e36edcb534175cb94ae53bb71557a6f1754fe9515b4e0e4bf610a4e09136bd09",
    "kv/rdma":
        "eb7d23e8c2ac4c9124d7a91e5c7863ef3add7f8e8cd8a8a45108ef162f65c963",
    "proto-slo/dpdk":
        "233d81c2ba83ce934a1da2636c94acc5cf65a4b9ab6acc815e5b8add3e5bab63",
    "proto-slo/posix":
        "db421ba93a8f96a109d9040d2938eb3a33d7882ffb45612cf86d60ebef9e0ae2",
    "storelog-scan/spdk":
        "92e569e2792f71687dd51d2e59538c7c6715f6010a46bcf9d876302bbef37271",
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
