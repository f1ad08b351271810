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
it was; and the five posix cells when the kernel NIC began to take a
frame that lands while its NAPI poll is still draining without an
interrupt of its own: ``interrupts_per_req``, server CPU, and the times
and rates that wait on the softirq core moved):
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
        "023f17c01364e0d2d7909c715f1f46ee927e7bb168376a2de9bf067931dd3c2b",
    "echo-rtt/posix-libos":
        "70eb4f30ae1ae7925c081902e8c0f0eb88de1e5bd8c586cce9f36f92a1ad71bc",
    "echo-rtt/rdma":
        "280fcf57b4730033f1576d15a1801a08c41b6f69c787af1187df6a27f6ca02f1",
    "kv-offload/dpdk":
        "e1768158b6ce6ed8cd61b7c5c7db35694ca0862284ee32fd66b819874acdb15e",
    "kv-rtt/dpdk":
        "abcac2d5cd77263dddc7b730738e3269cbc074a6880ebc8c6abeeb2d06474534",
    "kv-rtt/posix":
        "9d0b60029decf1782227c7f516f35bfc9d1d872acd585f616b51c19fab500d3e",
    "kv-scaling/dpdk":
        "d47d15377d549bbcce88ef5a764e851e800140d48ff185816641df7493754fbc",
    "kv/dpdk":
        "f5ad2cd9240801b25d7a592a73a427b4f4fb5267d3461305c3367f4a584e20db",
    "kv/posix":
        "4cb483c4338f6913638b525ba1a2f63c4c07ff0857587db7db07a6e246a06eea",
    "kv/rdma":
        "dda9916494811bff065c624818344a78e7c0fbc5c0b13540584ee026dd597283",
    "proto-slo/dpdk":
        "8e66550bf92549a9bf967026c5b86fb7ae7231f57d490f801caa47a86bdde3df",
    "proto-slo/posix":
        "e2078eb5e62189ccabda8375727affe7948672269b9ce0c0c789467080503c5f",
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
