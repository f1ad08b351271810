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
    ("handshake-loss", "dpdk"): "35b59e6b87f87d19a9dab66fddf0261d08e825a8",
    ("handshake-loss", "posix"): "38a9f2cc59b75ccdcba9edb36bc95a5559f79a92",
    ("handshake-loss", "rdma"): "a728d3219f4b8bb8d113c7b3d39b85a317ef48d3",
    ("reorder-dup-storm", "dpdk"): "67c7a8ecbc21963aba74a700aa40995ef96f64eb",
    ("reorder-dup-storm", "posix"): "ba8d5845ecc3f6e4c226685c76d8b45ba3ee8b79",
    ("reorder-dup-storm", "rdma"): "d87b6bcde555943e8ce186f90a74bf6cecaef138",
    ("partition-heal", "dpdk"): "b3264be8866dbf24b6e071e0a74766bd773f026b",
    ("partition-heal", "posix"): "37226f26dae492fbaeecd2e4da4df1a5cc1711f9",
    ("partition-heal", "rdma"): "d7d89922151e24a4d06e36bb2a388d4fba55581a",
    ("rx-ring-overflow", "dpdk"): "f2b3db500616017096c66f21ce74a6fbe670a072",
    ("slow-nvme", "spdk"): "14e54e9cdb2fe6c3f6eabe8ac1a1736993dccd89",
    ("corruption-storm", "dpdk"): "25f43199073ef3af06ccf76930c6fa49e46208a3",
    ("corruption-storm", "posix"): "281ec15d9a7527b8c347325e89e7ff4521027f11",
    ("crash-mid-stream", "dpdk"): "f5088887702cc6bccefe452ce7d7ec40df9895d3",
    ("crash-mid-stream", "posix"): "42ce8c4b4824640ac468c36cfb633512a761ca8a",
    ("crash-mid-stream", "rdma"): "1bbdc93d70bcd20ad3e4fa7b7fc675221e4cef16",
    ("crash-storage", "spdk"): "9744062b7db70ed64e370a5d5cf3b1a5b12442e2",
    ("nvme-transient-outage", "spdk"):
        "df93479e06bf14198ca209de2e34e9399a26b444",
    ("nvme-fatal-outage", "spdk"): "9421f12b510ccbdf99f796b730762afe8016c2e1",
    ("link-flap", "dpdk"): "98fa94b980a8dcd8ceea7eddad754112ea077445",
    ("link-flap", "posix"): "21cab203b8ce8aa1b136962164fec2e300583b26",
    ("replica-crash-head", "rdma"): "5ab24692add07df47ce977af16f0adbffa3adf19",
    ("replica-crash-middle", "rdma"):
        "dc7f7656ce4aa66ea1200e3036d87eeb2e2c294b",
    ("replica-crash-tail", "rdma"): "c6141a8ad5344797f47b5ace0f72160c17ddb40b",
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
