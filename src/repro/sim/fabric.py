"""The simulated network fabric.

A :class:`Fabric` behaves like a single datacenter switch: NIC ports
attach with a link-layer address, and frames submitted by one port are
delivered to the destination port after propagation plus serialization
delay.  Egress links serialize (back-to-back frames queue), loss can be
injected for protocol tests, and a broadcast address reaches every other
port (ARP needs this).

The fabric is payload-agnostic: it moves opaque ``frame`` objects plus a
byte count.  The byte count, not Python object size, drives timing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .costs import CostModel, DEFAULT_COSTS
from .engine import Simulator
from .rand import Rng
from .trace import Tracer
from ..telemetry import names

__all__ = ["Fabric", "Port", "BROADCAST_ADDR"]

BROADCAST_ADDR = "ff:ff:ff:ff:ff:ff"


class Port:
    """One attachment point: an address plus a delivery callback."""

    def __init__(self, addr: str, deliver: Callable[[Any], None]):
        self.addr = addr
        self.deliver = deliver
        self._egress_free_at = 0


class Fabric:
    """A single switch connecting all attached ports."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel = DEFAULT_COSTS,
        tracer: Optional[Tracer] = None,
        rng: Optional[Rng] = None,
        drop_rate: float = 0.0,
    ):
        self.sim = sim
        self.costs = costs
        self.tracer = tracer or Tracer()
        self.counters = self.tracer.scope(names.FABRIC)
        self.rng = rng or Rng(7)
        self.drop_rate = drop_rate
        self.ports: Dict[str, Port] = {}
        #: optional per-(frame, destination) decision hook, consulted after
        #: the legacy ``drop_rate`` draw.  Signature:
        #: ``hook(src_addr, dst_addr, frame, nbytes) -> None | [(extra_ns,
        #: frame), ...]`` - None leaves the frame untouched, an empty list
        #: drops it, multiple entries duplicate it.  Installed by
        #: :class:`repro.sim.faults.FaultInjector`.
        self.fault_filter: Optional[
            Callable[[str, str, Any, int],
                     Optional[List[Tuple[int, Any]]]]] = None

    def attach(self, addr: str, deliver: Callable[[Any], None]) -> Port:
        """Attach a NIC port; *deliver(frame)* runs on frame arrival."""
        if addr in self.ports:
            raise ValueError("address %r already attached" % addr)
        if addr == BROADCAST_ADDR:
            raise ValueError("cannot attach at the broadcast address")
        port = Port(addr, deliver)
        self.ports[addr] = port
        return port

    def transmit(self, src_addr: str, dst_addr: str, frame: Any, nbytes: int) -> None:
        """Submit a frame from *src_addr* toward *dst_addr*.

        Timing: the source egress link serializes frames FIFO at the link
        rate; each frame then takes the propagation latency to arrive.
        """
        src = self.ports.get(src_addr)
        if src is None:
            raise ValueError("unknown source port %r" % src_addr)
        serialize = int(nbytes * self.costs.link_ns_per_byte)
        now = self.sim._now
        start = max(now, src._egress_free_at)
        src._egress_free_at = start + serialize
        arrive = start + serialize + self.costs.link_latency_ns
        self.counters.tx_frames += 1
        self.counters.tx_bytes += nbytes

        if dst_addr == BROADCAST_ADDR:
            # Drop decisions are per destination: one replica being lost
            # must not silently lose the copies to every other port.
            for addr, port in list(self.ports.items()):
                if addr != src_addr:
                    self._deliver_one(src_addr, port, frame, nbytes,
                                      arrive - now)
            return

        dst = self.ports.get(dst_addr)
        if dst is None:
            # Like a real switch: frames to unknown addresses vanish.
            self.counters.unknown_dst_frames += 1
            return
        self._deliver_one(src_addr, dst, frame, nbytes, arrive - now)

    def _deliver_one(self, src_addr: str, dst: Port, frame: Any,
                     nbytes: int, base_delay: int) -> None:
        """Decide and schedule one (frame, destination) delivery."""
        if self.drop_rate and self.rng.chance(self.drop_rate):
            self.counters.dropped_frames += 1
            return
        if self.fault_filter is not None:
            fate = self.fault_filter(src_addr, dst.addr, frame, nbytes)
            if fate is not None:
                if not fate:
                    self.counters.dropped_frames += 1
                    return
                for extra_ns, out_frame in fate:
                    self.sim.call_in(base_delay + extra_ns, self._arrive,
                                     dst, out_frame)
                return
        self.sim.call_in(base_delay, self._arrive, dst, frame)

    def _arrive(self, port: Port, frame: Any) -> None:
        self.counters.rx_frames += 1
        port.deliver(frame)
