"""Corruption reaches no application: every stack verifies checksums.

Every ``WORKLOADS`` cell whose world runs TCP - the dpdk, posix, kernel,
mtcp and sharded worlds - runs under a plan that corrupts a fifth of all
frames for its first 3 ms.  Each stack drops a frame whose IPv4 or TCP
checksum fails and counts it, and TCP's retransmission repairs the gap,
so every cell must pass all of its own checks: a stack that took a
damaged frame at its word would hand the application bytes nobody sent
(a reply that differs from its request, a length prefix that decodes to
1 GiB, a client waiting for ever on a frame it cannot parse).

The non-TCP cells that still fail under this plan are entries of the
known-defect register (``tests/defects``).
"""

import pytest

from repro.sim.faults import FaultPlan
from repro.testing import WORKLOADS, run_scenario

#: the worlds whose stacks speak TCP
TCP_WORLDS = ("dpdk", "posix", "kernel", "mtcp", "sharded")

CELLS = [(row, kind) for row, spec in WORKLOADS.items()
         for kind in spec["kinds"]
         if spec.get("world", kind) in TCP_WORLDS]


def corruption(seed):
    """A fifth of every frame on every link damaged for the first 3 ms."""
    return FaultPlan(seed=seed).corrupt(0, 3_000_000, rate=0.2)


def test_every_tcp_world_is_covered():
    assert {WORKLOADS[row].get("world", kind)
            for row, kind in CELLS} == set(TCP_WORLDS)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("row,kind", CELLS,
                         ids=["%s-%s" % cell for cell in CELLS])
def test_a_tcp_cell_survives_corruption(row, kind, seed):
    result = run_scenario(row, kind, plan=corruption(seed)).require_ok()
    # an IPv4 header that fails its checksum counts as rx_malformed
    dropped = sum(n for name, n in result.world.tracer.counters.items()
                  if name.endswith((".tcp_bad_checksum_drops",
                                    ".rx_malformed")))
    assert dropped, "the plan damaged no frame a stack received"
