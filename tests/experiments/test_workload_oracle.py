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
once to move; ``kv`` on all three libOSes, ``kv-rtt/dpdk``,
``kv-scaling/dpdk`` and ``proto-slo`` when a pop on a listening queue
began to deliver each connection and the event loop's hand-off queue
went - 330 ns and one buffer less per accepted connection; and
``kv-offload/dpdk`` when the UDP server began to wait for its replies
through the libOS, paying the wait's ``wait_dispatch_ns``; and
``kv/rdma`` when closing an RDMA connection began to free its 64
receive-pool buffers: the client's close takes 64 ``free_ns`` longer, so
``elapsed_ns`` grows by 3 840 and the rate falls with it, every RTT as
it was):
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
        "e1768158b6ce6ed8cd61b7c5c7db35694ca0862284ee32fd66b819874acdb15e",
    "kv-rtt/dpdk":
        "abcac2d5cd77263dddc7b730738e3269cbc074a6880ebc8c6abeeb2d06474534",
    "kv-rtt/posix":
        "2f0a6dcc13170b5d2a29ae2cc45d4e32e1d2ddaa4c6acd4fff857a7e33c8e837",
    "kv-scaling/dpdk":
        "d47d15377d549bbcce88ef5a764e851e800140d48ff185816641df7493754fbc",
    "kv/dpdk":
        "f5ad2cd9240801b25d7a592a73a427b4f4fb5267d3461305c3367f4a584e20db",
    "kv/posix":
        "79f401906d50685886308c27f9f9a1709ab6f4b06241d361d112105953882528",
    "kv/rdma":
        "dda9916494811bff065c624818344a78e7c0fbc5c0b13540584ee026dd597283",
    "proto-slo/dpdk":
        "8e66550bf92549a9bf967026c5b86fb7ae7231f57d490f801caa47a86bdde3df",
    "proto-slo/posix":
        "88eb88f3e79ac8885c93f63431bd420023fbe1838059a980251eaf2dffb0b095",
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
