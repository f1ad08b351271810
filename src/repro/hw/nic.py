"""Simulated network interface cards.

Three NIC classes model the paper's Table 1 accelerator categories:

* :class:`DpdkNic` - "kernel-bypass only": raw ethernet frames through
  descriptor rings, polled from user space.  No OS features: whoever uses
  it must bring an entire network stack (``repro.netstack``).
* :class:`KernelNic` - the traditional device: interrupt-driven, owned by
  the in-kernel stack (``repro.kernelos``).
* :class:`RdmaNic` - "+OS features": reliable delivery, QPs, memory
  registration checks, and one-sided remote access, but *no* buffer
  management or flow control (the libOS must add those: RNR NAKs punish
  receivers that post too few buffers).

Timing: the NIC charges device-side costs (DMA, pipeline processing)
itself; CPU-side driver costs (doorbell writes, poll loops) are charged by
the driver code in the kernel or libOS.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.engine import Completion
from ..sim.fabric import Fabric
from ..telemetry import names
from .device import Device
from .iommu import Iommu

__all__ = ["DpdkNic", "KernelNic", "RdmaNic", "HwCq", "HwQp", "RdmaPacket",
           "QpError", "rss_hash", "rss_queue_for_flow"]


# --------------------------------------------------------------------------
# Ethernet-style NICs
# --------------------------------------------------------------------------


class _EthernetNic(Device):
    """Shared TX/RX machinery for frame-oriented NICs."""

    def __init__(self, host, fabric: Fabric, mac: str, name: str,
                 n_tx_queues: int):
        super().__init__(host, name)
        self.fabric = fabric
        self.mac = mac
        self.iommu = Iommu(host.tracer, name + ".iommu")
        self.port = fabric.attach(mac, self._on_wire_rx)
        self.offload = None  # set by hw.offload.OffloadEngine.attach()
        self.n_tx_queues = n_tx_queues
        # Each TX queue owns a serial pipeline (its own DMA engine);
        # descriptors posted to different queues proceed independently,
        # descriptors within one queue process FIFO.
        self._tx_free_at: List[int] = [0] * n_tx_queues
        self.link_up = True
        #: callbacks fired after a link flap heals (rings re-initialized);
        #: the netstack hangs its re-ARP here.
        self.on_link_recovered: List[Callable[[], None]] = []

    # -- transmit ---------------------------------------------------------
    def _tx_one(
        self,
        dst_mac: str,
        frame: bytes,
        dma_addrs: Optional[List[Tuple[int, int]]],
        tx_queue: int,
    ) -> None:
        if dma_addrs:
            for addr, size in dma_addrs:
                self.iommu.translate(addr, size)
        if not self.link_up:
            # No carrier: the descriptor completes but the frame is lost.
            self.counters.link_down_drops += 1
            return
        nbytes = len(frame)
        work = self.costs.dma_ns(nbytes) + self.costs.nic_process_ns
        now = self.sim._now
        if self.faults is not None:
            work += self.faults.stall_ns(now)
        # The TX pipeline is serial per queue: back-to-back descriptors
        # on the same queue wait on each other, other queues don't.
        start = max(now, self._tx_free_at[tx_queue])
        done = start + work
        self._tx_free_at[tx_queue] = done
        self.counters.tx_frames += 1
        self.counters.tx_bytes += nbytes
        if self.tracer.tracing:
            # The emission instant is computed analytically, so the span
            # can close now without scheduling anything.
            self.counters.span(names.SPAN_NIC_TX, names.CAT_DEVICE, now, done,
                               nbytes=nbytes)
        self.sim.call_in(done - now, self.fabric.transmit, self.mac, dst_mac,
                         frame, nbytes)

    def post_tx(
        self,
        dst_mac: str,
        frame: bytes,
        dma_addrs: Optional[List[Tuple[int, int]]] = None,
        tx_queue: int = 0,
    ) -> None:
        """Device-side transmit: gather-DMA the frame, process, emit.

        ``dma_addrs`` are the host-memory ranges the descriptor points at;
        each is validated against the IOMMU (zero-copy safety).
        """
        self._tx_one(dst_mac, frame, dma_addrs, tx_queue)

    def post_tx_burst(
        self,
        descs: List[Tuple[str, bytes]],
        tx_queue: int = 0,
    ) -> None:
        """Post a burst of (dst_mac, frame) descriptors to one TX queue.

        Device-side timing is identical to posting them one by one (the
        pipeline still processes each frame); the saving is on the CPU
        side, where the driver rings **one** doorbell for the whole burst
        instead of one per frame (the caller charges it).
        """
        if not descs:
            return
        self.counters.tx_bursts += 1
        self.counters.tx_burst_frames += len(descs)
        for dst_mac, frame in descs:
            self._tx_one(dst_mac, frame, None, tx_queue)

    # -- receive ----------------------------------------------------------
    def _on_wire_rx(self, frame: Any) -> None:
        if not self.link_up:
            self.counters.link_down_drops += 1
            return
        nbytes = len(frame)
        delay = self.costs.nic_process_ns + self.costs.dma_ns(nbytes)
        if self.faults is not None:
            delay += self.faults.stall_ns(self.sim.now)
        self.sim.call_in(delay, self._rx_ready, frame)

    def _rx_ready(self, frame: Any) -> None:
        raise NotImplementedError

    # -- link state --------------------------------------------------------
    def drain_rx(self) -> int:
        """Discard buffered RX state; returns frames dropped (subclasses)."""
        return 0

    def link_fail(self) -> None:
        """Carrier lost: frames in the rings are gone, TX/RX drop."""
        if not self.link_up:
            return
        self.link_up = False
        self.counters.link_flaps += 1
        self.drain_rx()

    def link_recover(self) -> None:
        """Carrier back: re-initialize rings and notify listeners."""
        if self.link_up:
            return
        self.link_up = True
        # every TX pipeline restarts empty
        self._tx_free_at = [0] * self.n_tx_queues
        self.counters.ring_reinits += 1
        for hook in list(self.on_link_recovered):
            hook()


@lru_cache(maxsize=4096)  # one entry per live flow; every frame asks
def rss_hash(tuple_bytes: bytes) -> int:
    """The NIC's RSS hash over the 12 flow-tuple bytes.

    Module-level so software can predict hardware steering: a sharded
    server partitions its key space with the same function the NIC uses
    to pick RX queues, and a client picks a source port that hashes its
    flow onto the shard it wants (see ``repro.cluster``).
    """
    h = 0
    for b in tuple_bytes:
        h = (h * 31 + b) & 0xFFFFFFFF
    return h


def rss_queue_for_flow(src_ip: str, dst_ip: str, src_port: int,
                       dst_port: int, n_queues: int) -> int:
    """Which RX queue the NIC at *dst_ip* steers this IPv4 flow to.

    Packs the tuple exactly as it appears on the wire (frame bytes
    [26:38]: src ip, dst ip, src port, dst port), so the answer is
    bit-identical to :meth:`DpdkNic._rss_queue` on the real frame.
    """
    from ..netstack.packet import ip_to_bytes

    tuple_bytes = (ip_to_bytes(src_ip) + ip_to_bytes(dst_ip)
                   + struct.pack("!HH", src_port, dst_port))
    return rss_hash(tuple_bytes) % n_queues


class DpdkNic(_EthernetNic):
    """Poll-mode, kernel-bypass frame NIC (the DPDK device model).

    Supports multiple RX queues with receive-side scaling: the NIC hashes
    each arriving frame's IPv4 flow tuple and steers it to one of
    ``n_rx_queues`` rings, so independent cores can each poll their own
    ring without sharing - the standard kernel-bypass multi-core recipe.

    With ``replicate_non_ip=True`` the NIC copies non-IPv4 frames (ARP,
    essentially) into *every* RX ring instead of only queue 0 - the
    moral equivalent of a broadcast/all-multi filter per queue, so each
    per-core stack sees ARP traffic without a cross-core control plane.
    """

    kind = "dpdk-nic"

    def __init__(self, host, fabric, mac, name="dpdk0", n_rx_queues=1,
                 replicate_non_ip=False):
        if n_rx_queues < 1:
            raise ValueError("a NIC needs at least one RX queue")
        # Symmetric queues: each polling core gets a private TX pipeline
        # to match its private RX ring, so shards never serialize behind
        # one DMA engine (the 8-core knee).
        super().__init__(host, fabric, mac, name, n_tx_queues=n_rx_queues)
        #: descriptors per RX ring (a ``nic_ring_clamp`` fault lowers the
        #: effective limit for its window)
        self.rx_ring_size = 1024
        self.n_rx_queues = n_rx_queues
        self.replicate_non_ip = replicate_non_ip
        #: device-resident RX program (FlexNIC-style match+action): runs
        #: on the attached offload engine per arriving frame, before RSS.
        self._rx_program: Optional[Callable[[bytes], Any]] = None
        self._rx_rings: List[Deque[bytes]] = [deque()
                                              for _ in range(n_rx_queues)]
        self._rx_waiters: List[List[Completion]] = [[]
                                                    for _ in range(n_rx_queues)]
        self._rxq_frames = [names.rxq_frames(q) for q in range(n_rx_queues)]

    # -- receive-side scaling ----------------------------------------------
    def _is_ipv4(self, frame: bytes) -> bool:
        # ethertype at [12:14]; a steerable frame needs the full 20-byte
        # IP header plus L4 ports present.
        return len(frame) >= 38 and frame[12:14] == b"\x08\x00"

    def _rss_queue(self, frame: bytes) -> int:
        """Steer by the IPv4 flow tuple; non-IP traffic lands in queue 0."""
        if self.n_rx_queues == 1:
            return 0
        # IPv4 addresses at [26:34]; L4 ports at [34:38] for a 20-byte
        # IP header.
        if not self._is_ipv4(frame):
            return 0
        return rss_hash(frame[26:38]) % self.n_rx_queues

    # -- device-resident RX programs (FlexNIC-style) -----------------------
    def install_rx_program(self, program: Optional[Callable[[bytes], Any]]
                           ) -> None:
        """Install a match+action program run per RX frame on the NIC.

        Requires an attached offload engine (which charges the device
        pipeline per invocation).  The program returns one of:

        * ``None`` - no match: the frame takes the normal RSS path;
        * ``("reply", dst_mac, frame_bytes)`` - answer from the NIC:
          the reply is transmitted directly and the original frame
          never reaches a host RX ring;
        * ``("steer", queue)`` - override RSS and enqueue the frame on
          the given RX queue (content-based steering, e.g. by KV key).

        Pass ``None`` to uninstall.
        """
        if program is not None and self.offload is None:
            raise ValueError(
                "%s has no offload engine; attach one before installing "
                "an RX program" % self.name)
        self._rx_program = program

    def _rx_ready(self, frame: Any) -> None:
        if self._rx_program is not None and self.offload is not None:
            try:
                action = self.offload.run_now("map", self._rx_program, frame)
            except Exception:
                # A buggy program must not take RX down: count the fault
                # and fall back to the normal (host) path for this frame.
                self.offload.counters.offload_element_faults += 1
                action = None
            if action is not None:
                verb = action[0]
                if verb == "reply":
                    _verb, dst_mac, reply = action
                    self.post_tx(dst_mac, reply)
                    return
                if verb == "steer":
                    self._enqueue_rx(action[1] % self.n_rx_queues, frame)
                    return
                raise ValueError("RX program returned unknown action %r"
                                 % (verb,))
        if (self.replicate_non_ip and self.n_rx_queues > 1
                and not self._is_ipv4(frame)):
            for queue in range(self.n_rx_queues):
                self._enqueue_rx(queue, frame)
            return
        self._enqueue_rx(self._rss_queue(frame), frame)

    def _enqueue_rx(self, queue: int, frame: Any) -> None:
        ring = self._rx_rings[queue]
        limit = self.rx_ring_size
        if self.faults is not None:
            limit = self.faults.ring_limit(self.sim.now, limit)
        if len(ring) >= limit:
            self.counters.rx_ring_drops += 1
            return
        ring.append(frame)
        self.counters.rx_frames += 1
        self.counters.count(self._rxq_frames[queue])
        if self.tracer.tracing:
            self._trace_occupancy(queue)
        waiters, self._rx_waiters[queue] = self._rx_waiters[queue], []
        for w in waiters:
            w.trigger(None)

    def rx_burst(self, max_frames: int = 32, queue: int = 0) -> List[bytes]:
        """Dequeue up to *max_frames* from one RX ring (driver polls)."""
        ring = self._rx_rings[queue]
        out: List[bytes] = []
        while ring and len(out) < max_frames:
            out.append(ring.popleft())
        if self.tracer.tracing:
            self._trace_occupancy(queue)
        return out

    def _trace_occupancy(self, queue: int) -> None:
        self.counters.gauge(names.rxq_occupancy(queue)).set(
            len(self._rx_rings[queue]))

    def drain_rx(self) -> int:
        """Empty every RX ring (link failure / crash teardown)."""
        dropped = 0
        for queue, ring in enumerate(self._rx_rings):
            dropped += len(ring)
            ring.clear()
            if self.tracer.tracing:
                self._trace_occupancy(queue)
        return dropped

    def rx_signal(self, queue: int = 0) -> Completion:
        """Completion that fires as soon as the RX ring is non-empty.

        A real poll-mode driver spins; spinning in a discrete-event
        simulator would flood the heap, so the driver blocks here and
        charges its poll cost (``costs.dpdk_poll_ns``) when it wakes - the
        same observable latency a ~100 ns spin loop gives.
        """
        done = Completion(self.sim, ("%s.rxq%d", self.name, queue))
        if self._rx_rings[queue]:
            done.trigger(None)
        else:
            self._rx_waiters[queue].append(done)
        return done


class KernelNic(_EthernetNic):
    """Interrupt-driven NIC owned by the legacy in-kernel stack.

    Receive is NAPI, as in Linux since 2.6: an interrupt starts a poll on
    the IRQ core (``irq_core``) that lasts until the core's free horizon,
    read once the handler has charged its receive work - on the FIFO core
    the instant the softirq work finishes.  A frame that arrives before
    the poll ends is handed over by the running poll (the handler's
    ``kernel_net_rx_ns``, no ``interrupt_ns``; counted ``rx_polled``) and
    extends it; one that arrives after raises its own interrupt.

    Interrupt moderation (ITR, ``coalesce_ns`` > 0) is the NIC's own,
    separate trade: after an interrupt, frames that arrive while no poll
    runs are parked until the window ends and delivered under one more
    interrupt - fewer interrupts when the poll cannot keep up, up to a
    full window of added latency per frame.  Kernel-bypass polling has
    neither cost, which is why benchmark ABL4 measures both sides.
    """

    kind = "kernel-nic"

    def __init__(self, host, fabric, mac, name="eth0", coalesce_ns=0):
        super().__init__(host, fabric, mac, name, n_tx_queues=1)
        self.irq_handler: Optional[Callable[[bytes], None]] = None
        self.irq_core = host.cpu
        self.coalesce_ns = coalesce_ns
        self._poll_ends_at = 0
        self._window_ends_at = 0
        self._coalesced: List[Any] = []

    def _fire_interrupt(self, frames: List[Any]) -> None:
        self.irq_core.charge_async(self.costs.interrupt_ns)
        self.counters.rx_interrupts += 1
        for frame in frames:
            self.irq_handler(frame)
        self._poll_ends_at = self.irq_core.free_at

    def _rx_ready(self, frame: Any) -> None:
        self.counters.rx_frames += 1
        if self.irq_handler is None:
            self.counters.rx_no_handler_drops += 1
            return
        now = self.sim._now
        if now < self._poll_ends_at:
            # The poll an earlier interrupt started is still draining.
            self.counters.rx_polled += 1
            self.irq_handler(frame)
            self._poll_ends_at = self.irq_core.free_at
            return
        if self.coalesce_ns and now < self._window_ends_at:
            # Inside a coalescing window: park the frame for the flush.
            self.counters.rx_coalesced += 1
            self._coalesced.append(frame)
            return
        self._fire_interrupt([frame])
        if self.coalesce_ns:
            self._window_ends_at = now + self.coalesce_ns
            self.sim.call_in(self.coalesce_ns, self._flush_window)

    def _flush_window(self) -> None:
        frames, self._coalesced = self._coalesced, []
        if frames:
            self._fire_interrupt(frames)
            # Frames arrived during the window: keep coalescing.
            self._window_ends_at = self.sim.now + self.coalesce_ns
            self.sim.call_in(self.coalesce_ns, self._flush_window)

    def drain_rx(self) -> int:
        """End the poll and drop frames parked in the coalescing window."""
        self._poll_ends_at = 0
        dropped = len(self._coalesced)
        self._coalesced.clear()
        return dropped


# --------------------------------------------------------------------------
# RDMA NIC
# --------------------------------------------------------------------------


@dataclass
class RdmaPacket:
    """One message on the wire between RDMA NICs."""

    kind: str  # send | ack | nak_rnr | read_req | read_resp | write | write_ack
    src_nic: str
    src_qp: int
    dst_qp: int
    seq: int
    payload: bytes = b""
    raddr: int = 0
    rlen: int = 0
    wr_id: int = 0
    imm: Any = None

    @property
    def nbytes(self) -> int:
        # Headers are ~60B on the wire (eth+ip+udp+BTH for RoCE).
        return 60 + len(self.payload)

    def release_landing(self) -> None:
        """The WR left the in-flight table: a READ lets go of the buffer
        its response lands in (``imm``, held since it was posted)."""
        if self.kind == "read_req":
            self.imm.release()


class QpError(Exception):
    """The QP transitioned to the error state (retries exhausted...)."""


class HwCq:
    """A hardware completion queue: CQE list plus a poller wake-up."""

    def __init__(self, sim, name: str = "cq"):
        self.sim = sim
        self.name = name
        self._cqes: Deque[Dict[str, Any]] = deque()
        self._waiters: List[Completion] = []

    def push(self, cqe: Dict[str, Any]) -> None:
        self._cqes.append(cqe)
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.trigger(None)

    def poll(self, max_cqes: int = 16) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        while self._cqes and len(out) < max_cqes:
            out.append(self._cqes.popleft())
        return out

    def signal(self) -> Completion:
        done = Completion(self.sim, ("%s.signal", self.name))
        if self._cqes:
            done.trigger(None)
        else:
            self._waiters.append(done)
        return done


@dataclass
class HwQp:
    """Hardware queue-pair state (reliable-connected)."""

    qpn: int
    send_cq: HwCq
    recv_cq: HwCq
    remote_nic: str = ""
    remote_qpn: int = -1
    connected: bool = False
    send_seq: int = 0
    recv_expect: int = 0
    #: posted receive buffers: (wr_id, buffer-like with .write/.capacity)
    recv_buffers: Deque[Tuple[int, Any]] = field(default_factory=deque)
    #: unacked sends: seq -> (packet, retries, emission-epoch)
    inflight: Dict[int, Tuple[RdmaPacket, int, int]] = field(default_factory=dict)
    error: bool = False
    epoch_counter: int = 0


class RdmaNic(Device):
    """Reliable-connected RDMA NIC with MR-checked one-sided operations."""

    kind = "rdma-nic"

    MAX_RETRIES = 8

    def __init__(self, host, fabric: Fabric, addr: str, name: str = "rdma0"):
        super().__init__(host, name)
        self.fabric = fabric
        self.addr = addr
        self.iommu = Iommu(host.tracer, name + ".mr")
        self.port = fabric.attach(addr, self._on_wire_rx)
        self.qps: Dict[int, HwQp] = {}
        self._next_qpn = 1
        #: host-memory access hooks for one-sided ops, installed by the
        #: memory manager: read_mem(addr, n) -> bytes, write_mem(addr, data)
        self.mem: Any = None
        self.offload = None

    # -- QP lifecycle -------------------------------------------------------
    def create_qp(self) -> HwQp:
        qpn = self._next_qpn
        self._next_qpn += 1
        qp = HwQp(
            qpn=qpn,
            send_cq=HwCq(self.sim, "%s.qp%d.scq" % (self.name, qpn)),
            recv_cq=HwCq(self.sim, "%s.qp%d.rcq" % (self.name, qpn)),
        )
        self.qps[qpn] = qp
        self.counters.qps_created += 1
        return qp

    def connect_qp(self, qp: HwQp, remote_nic: str, remote_qpn: int) -> None:
        qp.remote_nic = remote_nic
        qp.remote_qpn = remote_qpn
        qp.connected = True

    def destroy_qp(self, qp: HwQp) -> None:
        """Tear a QP down; outstanding send WRs flush with error CQEs.

        Real RC hardware completes every posted-but-unfinished WR with
        ``IBV_WC_WR_FLUSH_ERR`` when the QP leaves the ready states.
        Drivers rely on those flushes to release the buffers behind the
        WRs - and so does the crash-teardown path here: a push driver
        parked on its send CQE wakes on the flush instead of leaking its
        buffer holds forever.
        """
        qp.error = True
        self._flush_inflight(qp)
        qp.recv_buffers.clear()
        self.qps.pop(qp.qpn, None)

    def _flush_inflight(self, qp: HwQp) -> None:
        """Complete every outstanding send WR with a ``flush`` CQE."""
        for seq in sorted(qp.inflight):
            pkt, _retries, _epoch = qp.inflight[seq]
            pkt.release_landing()
            qp.send_cq.push({"wr_id": pkt.wr_id, "status": "flush",
                             "opcode": pkt.kind, "qpn": qp.qpn})
            self.counters.wr_flushes += 1
        qp.inflight.clear()

    # -- verbs: posting work ----------------------------------------------
    def post_recv(self, qp: HwQp, wr_id: int, buffer: Any) -> None:
        """Post a receive buffer; buffer needs .addr/.capacity/.write()."""
        self.iommu.translate(buffer.addr, buffer.capacity)
        qp.recv_buffers.append((wr_id, buffer))
        self.counters.posted_recvs += 1

    def post_send(self, qp: HwQp, wr_id: int, payload: bytes,
                  addr: Optional[int] = None) -> None:
        """Two-sided send; completes on the send CQ once acked."""
        self._check_qp(qp)
        if addr is not None:
            self.iommu.translate(addr, max(1, len(payload)))
        seq = qp.send_seq
        qp.send_seq += 1
        pkt = RdmaPacket(
            kind="send", src_nic=self.addr, src_qp=qp.qpn,
            dst_qp=qp.remote_qpn, seq=seq, payload=payload, wr_id=wr_id,
        )
        self._emit(qp, pkt)

    def post_write(self, qp: HwQp, wr_id: int, payload: bytes, raddr: int,
                   addr: Optional[int] = None) -> None:
        """One-sided RDMA write into remote registered memory."""
        self._check_qp(qp)
        if addr is not None:
            self.iommu.translate(addr, max(1, len(payload)))
        seq = qp.send_seq
        qp.send_seq += 1
        pkt = RdmaPacket(
            kind="write", src_nic=self.addr, src_qp=qp.qpn,
            dst_qp=qp.remote_qpn, seq=seq, payload=payload,
            raddr=raddr, wr_id=wr_id,
        )
        self._emit(qp, pkt)

    def post_read(self, qp: HwQp, wr_id: int, raddr: int, rlen: int,
                  local_buffer: Any) -> None:
        """One-sided RDMA read from remote registered memory.

        The NIC holds the landing buffer until the READ completes or is
        flushed, so a ``free()`` while the response is in flight is
        deferred (free-protection) rather than a DMA into freed memory.
        """
        self._check_qp(qp)
        self.iommu.translate(local_buffer.addr, max(1, rlen))
        seq = qp.send_seq
        qp.send_seq += 1
        pkt = RdmaPacket(
            kind="read_req", src_nic=self.addr, src_qp=qp.qpn,
            dst_qp=qp.remote_qpn, seq=seq, raddr=raddr, rlen=rlen, wr_id=wr_id,
        )
        # Stash the landing buffer for the response.
        pkt.imm = local_buffer.hold()
        self._emit(qp, pkt)

    def _check_qp(self, qp: HwQp) -> None:
        if qp.error:
            raise QpError("QP %d is in the error state" % qp.qpn)
        if not qp.connected:
            raise QpError("QP %d is not connected" % qp.qpn)

    def drain_rx(self) -> int:
        """Crash teardown: flush posted-but-unconsumed receive WRs.

        RC has no rx ring in the Ethernet sense; the teardown equivalent
        is flushing every still-posted receive buffer (real hardware
        completes them with ``IBV_WC_WR_FLUSH_ERR``) so the memory
        manager can free the buffers behind them.
        """
        drained = 0
        for qp in list(self.qps.values()):
            drained += len(qp.recv_buffers)
            qp.recv_buffers.clear()
        if drained:
            self.counters.wr_flushes += drained
        return drained

    # -- the wire -----------------------------------------------------------
    def _emit(self, qp: HwQp, pkt: RdmaPacket, retries: int = 0) -> None:
        if pkt.kind in ("send", "write", "read_req"):
            qp.epoch_counter += 1
            epoch = qp.epoch_counter
            qp.inflight[pkt.seq] = (pkt, retries, epoch)
            self.sim.call_in(self._rto(), self._maybe_retransmit, qp, pkt.seq, epoch)
        delay = self.costs.rdma_nic_process_ns + self.costs.dma_ns(len(pkt.payload))
        self.counters.count(names.tx_packet_kind(pkt.kind))
        self.sim.call_in(delay, self.fabric.transmit, self.addr, qp.remote_nic,
                         pkt, pkt.nbytes)

    def _rto(self) -> int:
        return 6 * self.costs.wire_ns(256) + 20 * self.costs.rdma_nic_process_ns

    def _maybe_retransmit(self, qp: HwQp, seq: int, epoch: int) -> None:
        entry = qp.inflight.get(seq)
        if entry is None or qp.error:
            return
        pkt, retries, live_epoch = entry
        if live_epoch != epoch:
            return  # a newer emission owns this sequence number
        if pkt.seq != min(qp.inflight):
            # Blocked behind a head-of-line hole: the receiver drops
            # out-of-order packets, so this isn't *this* packet failing.
            # Retransmit without burning retry budget (go-back-N spirit).
            self.counters.retransmits += 1
            self._emit(qp, pkt, retries)
            return
        if retries + 1 > self.MAX_RETRIES:
            qp.error = True
            del qp.inflight[seq]
            pkt.release_landing()
            qp.send_cq.push({"wr_id": pkt.wr_id, "status": "retry-exceeded",
                             "opcode": pkt.kind, "qpn": qp.qpn})
            self.counters.qp_errors += 1
            # The QP is now in the error state: nothing else in flight
            # will ever retransmit, so flush it (real RC hardware
            # completes the rest with IBV_WC_WR_FLUSH_ERR).  Without
            # this, those WRs strand forever with no CQE at all.
            self._flush_inflight(qp)
            return
        self.counters.retransmits += 1
        self._emit(qp, pkt, retries + 1)

    def _on_wire_rx(self, pkt: Any) -> None:
        if not isinstance(pkt, RdmaPacket):
            self.counters.non_rdma_frames_dropped += 1
            return
        delay = self.costs.rdma_nic_process_ns + self.costs.dma_ns(len(pkt.payload))
        if self.faults is not None:
            delay += self.faults.stall_ns(self.sim.now)
        self.sim.call_in(delay, self._process_rx, pkt)

    def _process_rx(self, pkt: RdmaPacket) -> None:
        qp = self.qps.get(pkt.dst_qp)
        if qp is None:
            self.counters.rx_unknown_qp += 1
            return
        handler = getattr(self, "_rx_" + pkt.kind, None)
        if handler is None:
            self.counters.rx_unknown_kind += 1
            return
        handler(qp, pkt)

    # requester side: completions -------------------------------------------
    def _complete_send(self, qp: HwQp, seq: int, status: str = "ok",
                       data: bytes = b"") -> None:
        entry = qp.inflight.pop(seq, None)
        if entry is None:
            return  # duplicate ack
        pkt, _retries, _epoch = entry
        cqe = {"wr_id": pkt.wr_id, "status": status, "opcode": pkt.kind,
               "qpn": qp.qpn, "nbytes": len(pkt.payload)}
        if pkt.kind == "read_req" and status == "ok":
            landing = pkt.imm
            landing.write(0, data)
            cqe["nbytes"] = len(data)
        pkt.release_landing()
        qp.send_cq.push(cqe)

    def _rx_ack(self, qp: HwQp, pkt: RdmaPacket) -> None:
        self._complete_send(qp, pkt.seq, "ok")

    def _rx_nak_rnr(self, qp: HwQp, pkt: RdmaPacket) -> None:
        """Receiver-not-ready: retry the send after a back-off."""
        self.counters.rnr_naks_received += 1
        entry = qp.inflight.get(pkt.seq)
        if entry is None:
            return
        orig, retries, _epoch = entry
        if retries + 1 > self.MAX_RETRIES:
            qp.error = True
            del qp.inflight[pkt.seq]
            qp.send_cq.push({"wr_id": orig.wr_id, "status": "rnr-exceeded",
                             "opcode": orig.kind, "qpn": qp.qpn})
            self.counters.qp_errors += 1
            self._flush_inflight(qp)
            return
        del qp.inflight[pkt.seq]
        backoff = self._rto()
        self.sim.call_in(backoff, self._emit, qp, orig, retries + 1)

    def _rx_read_resp(self, qp: HwQp, pkt: RdmaPacket) -> None:
        self._complete_send(qp, pkt.seq, "ok", pkt.payload)

    def _rx_nak_remote_access(self, qp: HwQp, pkt: RdmaPacket) -> None:
        """Remote access violation: fatal for the QP, as on real RC QPs."""
        self.counters.remote_access_naks += 1
        qp.error = True
        self._complete_send(qp, pkt.seq, "remote-access-error")

    def _rx_write_ack(self, qp: HwQp, pkt: RdmaPacket) -> None:
        self._complete_send(qp, pkt.seq, "ok")

    # responder side ---------------------------------------------------------
    def _reply(self, qp: HwQp, pkt: RdmaPacket, kind: str, payload: bytes = b"") -> None:
        resp = RdmaPacket(
            kind=kind, src_nic=self.addr, src_qp=qp.qpn,
            dst_qp=pkt.src_qp, seq=pkt.seq, payload=payload,
        )
        delay = self.costs.rdma_nic_process_ns
        self.sim.call_in(delay, self.fabric.transmit, self.addr, pkt.src_nic,
                         resp, resp.nbytes)

    def _rx_send(self, qp: HwQp, pkt: RdmaPacket) -> None:
        if pkt.seq < qp.recv_expect:  # duplicate delivery
            self._reply(qp, pkt, "ack")
            return
        if pkt.seq > qp.recv_expect:
            # Out of order: RC NICs drop and wait for retransmit.
            self.counters.rx_out_of_order_dropped += 1
            return
        if not qp.recv_buffers:
            self.counters.rnr_naks_sent += 1
            self._reply(qp, pkt, "nak_rnr")
            return
        wr_id, buffer = qp.recv_buffers.popleft()
        if len(pkt.payload) > buffer.capacity:
            # Message too big for the posted buffer: fatal on real RC QPs.
            qp.recv_cq.push({"wr_id": wr_id, "status": "length-error",
                             "opcode": "recv", "qpn": qp.qpn, "nbytes": 0})
            self.counters.recv_length_errors += 1
            qp.recv_expect += 1
            self._reply(qp, pkt, "ack")
            return
        buffer.write(0, pkt.payload)
        qp.recv_expect += 1
        qp.recv_cq.push({"wr_id": wr_id, "status": "ok", "opcode": "recv",
                         "qpn": qp.qpn, "nbytes": len(pkt.payload),
                         "buffer": buffer})
        self.counters.rx_sends_delivered += 1
        self._reply(qp, pkt, "ack")

    def _one_sided_ok(self, addr: int, size: int) -> bool:
        try:
            self.iommu.translate(addr, max(1, size))
            return True
        except Exception:
            return False

    def _rx_write(self, qp: HwQp, pkt: RdmaPacket) -> None:
        if pkt.seq < qp.recv_expect:
            self._reply(qp, pkt, "write_ack")
            return
        if pkt.seq > qp.recv_expect:
            self.counters.rx_out_of_order_dropped += 1
            return
        qp.recv_expect += 1
        if not self._one_sided_ok(pkt.raddr, len(pkt.payload)) or self.mem is None:
            self.counters.remote_access_errors += 1
            self._reply(qp, pkt, "nak_remote_access")
            return
        # One-sided: remote CPU never runs; the NIC writes memory itself.
        self.mem.write_mem(pkt.raddr, pkt.payload)
        self.counters.rx_writes_applied += 1
        self._reply(qp, pkt, "write_ack")

    def _rx_read_req(self, qp: HwQp, pkt: RdmaPacket) -> None:
        if pkt.seq < qp.recv_expect:
            pass  # duplicate: re-serve the read below
        elif pkt.seq > qp.recv_expect:
            self.counters.rx_out_of_order_dropped += 1
            return
        else:
            qp.recv_expect += 1
        if not self._one_sided_ok(pkt.raddr, pkt.rlen) or self.mem is None:
            self.counters.remote_access_errors += 1
            self._reply(qp, pkt, "nak_remote_access")
            return
        data = self.mem.read_mem(pkt.raddr, pkt.rlen)
        self.counters.rx_reads_served += 1
        # Response carries the data; extra DMA on the responder NIC.
        resp = RdmaPacket(
            kind="read_resp", src_nic=self.addr, src_qp=qp.qpn,
            dst_qp=pkt.src_qp, seq=pkt.seq, payload=data,
        )
        delay = self.costs.rdma_nic_process_ns + self.costs.dma_ns(len(data))
        self.sim.call_in(delay, self.fabric.transmit, self.addr, pkt.src_nic,
                         resp, resp.nbytes)
