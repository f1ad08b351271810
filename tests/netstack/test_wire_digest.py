"""The wire oracle: every frame handed to the fabric, pinned by digest.

A golden signature digests counters; this digests what is on the wire.
Each run below hashes every ``Fabric.transmit`` - the simulated instant,
source, destination and the frame's bytes - so a change to how the stack
packs a header, orders two segments or times an ACK moves a digest even
when every counter still adds up.  The four runs cover the user-level
stack under the sharded server, the kernel's use of the same
``NetStack``, and two fault plans whose duplicates, reorderings and bit
flips reach the checksum and malformed-frame branches of the receive
path.

The digests do not depend on ``PYTHONHASHSEED``.  When a change to the
wire is intended, re-record the affected runs and say why in the PR.
(``kv-sharded-dpdk`` was re-recorded when its clients took the sharded
server's batched datapath: the same 442 frames, byte for byte, but most
leave 200 ns earlier - a client's doorbell is rung after the event that
sent the frame, so its next request no longer queues behind it.  Both
``kv-sharded-dpdk`` and ``open-loop-posix`` were re-recorded when an
accept became a pop on the listening queue: the hand-off's 330 ns per
connection left the server's core, which moves when delayed ACKs fire -
one more pure ACK in the first, two fewer and other segment boundaries
in the second.  Both posix runs were re-recorded when the kernel NIC
began to hand a frame that lands during its NAPI poll to the running
poll without an interrupt: ``reorder-dup-storm-posix`` sends the same
111 frames, 106 of them up to 60 us earlier, and ``open-loop-posix``
sends six fewer pure ACKs, because a reply now leaves before the
delayed-ACK timer fires and carries the ACK.)
"""

import hashlib

import pytest

from repro.sim.fabric import Fabric
from repro.sim.faults import FaultPlan
from repro.testing import run_scenario

#: (scenario or workload, kind, fault plan or None for the golden one,
#: workload keywords) -> (frames transmitted, sha256 of all of them)
RUNS = {
    "kv-sharded-dpdk": (
        ("kv-sharded", "dpdk", FaultPlan(seed=7), {"cores": 4, "n_ops": 50}),
        (443,
         "02da9070291bfe23fd5a3cdcf83b6494b3c8944dacddf42a369a70c900813f4e")),
    "open-loop-posix": (
        ("open-loop", "posix", FaultPlan(seed=7), {"duration_ms": 2}),
        (409,
         "f1380d021c3aca9fb24417371198204378cc2b4c1e8983f801657991d92a6e6c")),
    "reorder-dup-storm-posix": (
        ("reorder-dup-storm", "posix", None, {}),
        (111,
         "51b192f5492ec039abcd40c229d72b8d4caf61c0b3a916b47345d7c6ed96b9b5")),
    "corruption-storm-dpdk": (
        ("corruption-storm", "dpdk", None, {}),
        (70,
         "176f2cae8ce784bb4a9d973c0efe8e9e5ecfd277b9117b75f2d8f8aa3a61430c")),
}


def wire_digest(monkeypatch, name, kind, plan, params):
    """Run one scenario; return (frames, digest) of all it transmitted."""
    digest = hashlib.sha256()
    frames = [0]
    transmit = Fabric.transmit

    def recording(fabric, src_addr, dst_addr, frame, nbytes):
        frames[0] += 1
        digest.update(b"%d %s %s %d " % (fabric.sim.now, src_addr.encode(),
                                         dst_addr.encode(), len(frame)))
        digest.update(frame)
        return transmit(fabric, src_addr, dst_addr, frame, nbytes)

    monkeypatch.setattr(Fabric, "transmit", recording)
    run_scenario(name, kind, plan=plan, **params).require_ok()
    return frames[0], digest.hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_transmitted_frame_is_pinned(monkeypatch, run):
    (name, kind, plan, params), expected = RUNS[run]
    assert wire_digest(monkeypatch, name, kind, plan, params) == expected
