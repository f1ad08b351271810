"""The wire oracle: every frame handed to the fabric, pinned.

A golden cell pins counters; this pins what is on the wire.  For each
run below ``tests/golden/wire.json`` holds the count of frames passed to
``Fabric.transmit``, the count per kind (``tcp ACK|PSH +data``,
``ethertype 0x0806``...) and a sha256 over each frame's simulated
instant, source, destination and bytes, so a change to how the stack
packs a header, orders two segments or times an ACK moves the digest
even when every counter still adds up.  The runs cover the user-level
stack under the sharded server, the kernel's use of the same
``NetStack``, and two fault plans that reach the checksum and
malformed-frame branches of the receive path.
"""

import collections
import hashlib

import pytest

from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ipv4 import PROTO_TCP, Ipv4Packet
from repro.netstack.tcp import TcpSegment
from repro.sim.fabric import Fabric
from repro.sim.faults import FaultPlan
from repro.testing import run_scenario

from .. import golden

#: (scenario or workload, kind, fault plan or None for the golden one,
#: workload keywords)
RUNS = {
    "kv-sharded-dpdk": ("kv-sharded", "dpdk", FaultPlan(seed=7),
                        {"cores": 4, "n_ops": 50}),
    "open-loop-posix": ("open-loop", "posix", FaultPlan(seed=7),
                        {"duration_ms": 2}),
    "reorder-dup-storm-posix": ("reorder-dup-storm", "posix", None, {}),
    "corruption-storm-dpdk": ("corruption-storm", "dpdk", None, {}),
}


def frame_kind(frame: bytes) -> str:
    eth = EthernetFrame.unpack(frame)
    if eth.ethertype != ETHERTYPE_IPV4:
        return "ethertype 0x%04x" % eth.ethertype
    packet = Ipv4Packet.unpack(eth.payload)
    if packet.proto != PROTO_TCP:
        return "ip proto %d" % packet.proto
    segment = TcpSegment.unpack(packet.payload)
    return "tcp " + segment.flag_names() + (" +data" if segment.payload
                                            else "")


def wire_record(monkeypatch, name, kind, plan, params):
    """Run one scenario; return what it transmitted."""
    digest = hashlib.sha256()
    kinds = collections.Counter()
    transmit = Fabric.transmit

    def recording(fabric, src_addr, dst_addr, frame, nbytes):
        kinds[frame_kind(frame)] += 1
        digest.update(b"%d %s %s %d " % (fabric.sim.now, src_addr.encode(),
                                         dst_addr.encode(), len(frame)))
        digest.update(frame)
        return transmit(fabric, src_addr, dst_addr, frame, nbytes)

    monkeypatch.setattr(Fabric, "transmit", recording)
    run_scenario(name, kind, plan=plan, **params).require_ok()
    return {"frames": sum(kinds.values()), "kinds": dict(kinds),
            "sha256": digest.hexdigest()}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_transmitted_frame_is_pinned(monkeypatch, run):
    golden.check("wire", run, wire_record(monkeypatch, *RUNS[run]))
