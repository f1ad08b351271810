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
    ("handshake-loss", "dpdk"): "31fd54695ffa577a9547b91351a550a69239777f",
    ("handshake-loss", "posix"): "08bf675d831131b020d90429dc8ba528dc0f26f3",
    ("handshake-loss", "rdma"): "955ce80f0f49a2316965d4842db5738579470fb5",
    ("reorder-dup-storm", "dpdk"): "7ed7a555ebb8f0343dd3c5867b0c4c1d43da5051",
    ("reorder-dup-storm", "posix"): "953d695cec758585e574eb6468f9941140dadfda",
    ("reorder-dup-storm", "rdma"): "a381702cf3377d63bd2a611a9dbe7aa0bc151651",
    ("partition-heal", "dpdk"): "acb7b9c1b6438b4888ed195e9a665889ba3b7137",
    ("partition-heal", "posix"): "885953b872498b333b39633e5e5fbf2ff952ab9c",
    ("partition-heal", "rdma"): "c06d4bb4b3a2c0f285bc73e03873029ee7ab49cf",
    ("rx-ring-overflow", "dpdk"): "af9b276d4a1436fc3803fa30bc09ba31d0d12a2c",
    ("slow-nvme", "spdk"): "1797ebfd6f8f33d11977a684f670518c14a2d177",
    ("corruption-storm", "dpdk"): "2892eeb602cf07915dd83e3f4b0a92bb6571a98f",
    ("corruption-storm", "posix"): "00a8ec571de644afb372154a623b076b8c8bfb14",
    ("crash-mid-stream", "dpdk"): "de16ad809b73c241a793dccb7c943751fa65931f",
    ("crash-mid-stream", "posix"): "a064fdbce92588466744e8559185822d4b585c38",
    ("crash-mid-stream", "rdma"): "bdcfea1d23e01a6d7d654cb5d8de5df6cf9b97eb",
    ("crash-storage", "spdk"): "9744062b7db70ed64e370a5d5cf3b1a5b12442e2",
    ("nvme-transient-outage", "spdk"):
        "090b949f1db33528df09ae55016f530d496f2ac3",
    ("nvme-fatal-outage", "spdk"): "9421f12b510ccbdf99f796b730762afe8016c2e1",
    ("link-flap", "dpdk"): "ae042fed2e5e43cbf43631da6712a93a72cd719a",
    ("link-flap", "posix"): "dc621719e86781ac26c88c249078ab58349f8313",
    ("replica-crash-head", "rdma"): "3ab42ead22e3eca7a1e0b8713aaf0b828e039f8d",
    ("replica-crash-middle", "rdma"):
        "6c85f33b48a018c2a73dfdd09d6a2f5ff29e6c72",
    ("replica-crash-tail", "rdma"): "433612c05563827cad8052a846b8267f83c8fa24",
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
    assert result.world.telemetry.enabled == telemetry
    assert bool(result.world.telemetry.spans) == telemetry
