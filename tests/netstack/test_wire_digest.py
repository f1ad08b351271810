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
        (842,
         "bddec3fafcf44e629e3ef0c89144734806750c4163fcd2f8f3a4d1836c162baf")),
    "open-loop-posix": (
        ("open-loop", "posix", FaultPlan(seed=7), {"duration_ms": 2}),
        (663,
         "37c3a648df103d6e91070b1b98f6124db862b9e6dcc35f4a1b92bc888ef6732c")),
    "reorder-dup-storm-posix": (
        ("reorder-dup-storm", "posix", None, {}),
        (189,
         "f42166462134376929bb95253082eeb3169e09216aa4a8e3ddfb2d2836725766")),
    "corruption-storm-dpdk": (
        ("corruption-storm", "dpdk", None, {}),
        (97,
         "01262910eb4b02e6e6427656d4cbec4cb7d2c52027deded5066e26890140c517")),
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
