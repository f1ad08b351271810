"""The refactoring oracle: every golden cell's full trace signature.

Every simulated run is a pure function of its seed, so the whole
(golden scenario x libOS kind) table can be pinned by its
``Tracer.signature()`` - a digest of every counter and every fault
timeline entry.  A change to the scenario driver, a workload's spawn
order, a transport's recovery path or the fault injector's decision
stream moves at least one of these; a pure refactoring moves none.

Each cell is asserted with telemetry off *and* on: telemetry is
observation-only, so attaching it may not move one event or mint one
counter differently (the contract the chaos battery relies on).

The signatures do not depend on ``PYTHONHASHSEED``.  When a behaviour
change is intended, re-record the affected cells and say why in the PR.
"""

import pytest

from repro.testing import GOLDEN_SCENARIOS, run_scenario

SIGNATURES = {
    ("handshake-loss", "dpdk"): "cb20d3a729191f534e1462d312378e9d7ff8abdd",
    ("handshake-loss", "posix"): "6860dd4c360eea821acea908499294ba63f9aba3",
    ("handshake-loss", "rdma"): "955ce80f0f49a2316965d4842db5738579470fb5",
    ("reorder-dup-storm", "dpdk"): "79c06c4de03074edf7b63b8623b741e117236dfc",
    ("reorder-dup-storm", "posix"): "4f800e0a2ef68e4f72d99deabdd2d58b5f53bfea",
    ("reorder-dup-storm", "rdma"): "a381702cf3377d63bd2a611a9dbe7aa0bc151651",
    ("partition-heal", "dpdk"): "e8d8441452d816d5b8bebee8af151eb4bcacf75e",
    ("partition-heal", "posix"): "628e703b0bd4301ac4c6e8dff23b4c196491c602",
    ("partition-heal", "rdma"): "c06d4bb4b3a2c0f285bc73e03873029ee7ab49cf",
    ("rx-ring-overflow", "dpdk"): "0044c9278ac5ced8be812a0cebbdb84c7e395f31",
    ("slow-nvme", "spdk"): "14e54e9cdb2fe6c3f6eabe8ac1a1736993dccd89",
    ("corruption-storm", "dpdk"): "6d5455bdcd10abab42d9f333b867fb6d72055927",
    ("corruption-storm", "posix"): "f675410d977b1a80dc8dc6fa0a402bc1d3c659ed",
    ("crash-mid-stream", "dpdk"): "216ba584a1b1c0f6787fd7ae5f5e9b9222f11fc7",
    ("crash-mid-stream", "posix"): "5243063a0e6ad7b964fc8e0693826da665c7313c",
    ("crash-mid-stream", "rdma"): "bdcfea1d23e01a6d7d654cb5d8de5df6cf9b97eb",
    ("crash-storage", "spdk"): "9744062b7db70ed64e370a5d5cf3b1a5b12442e2",
    ("nvme-transient-outage", "spdk"):
        "df93479e06bf14198ca209de2e34e9399a26b444",
    ("nvme-fatal-outage", "spdk"): "9421f12b510ccbdf99f796b730762afe8016c2e1",
    ("link-flap", "dpdk"): "ef07eae4d84cfdc0e52b7377bfa1b312943d590c",
    ("link-flap", "posix"): "fc7f19d92f7e86da70a42353bdb98cb427db2939",
    ("replica-crash-head", "rdma"): "5568aa81cd558b96b5a217adf98dce7a07dcf311",
    ("replica-crash-middle", "rdma"):
        "be6aa215c90dc54cc928b1dfaa7bf58801eed396",
    ("replica-crash-tail", "rdma"): "5866e717bea42dadf995c165336500917e4a571c",
}


def test_every_runnable_cell_is_pinned():
    cells = {(name, kind) for name, row in GOLDEN_SCENARIOS.items()
             for kind in row["kinds"]}
    assert cells == set(SIGNATURES)


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
@pytest.mark.parametrize("name,kind", sorted(SIGNATURES),
                         ids=["%s-%s" % cell for cell in sorted(SIGNATURES)])
def test_golden_signature(name, kind, telemetry):
    result = run_scenario(name, kind, telemetry=telemetry).require_ok()
    assert result.signature == SIGNATURES[name, kind]
    # Guard against the on-run silently running with telemetry off.
    assert result.world.tracer.tracing == telemetry
    assert bool(result.world.tracer.spans) == telemetry
