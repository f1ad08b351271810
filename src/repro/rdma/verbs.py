"""A verbs-style programming layer over :class:`repro.hw.nic.RdmaNic`.

This is the substrate today's RDMA applications program against (and the
one the paper says demands "enormous engineering effort"): protection
domains, explicit memory regions, queue pairs, and completion-queue
polling.  The RDMA libOS (``repro.libos.rdma_libos``) builds the
Demikernel abstraction on top of it, supplying the buffer management and
flow control the hardware does not.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..hw.nic import HwCq, HwQp, RdmaNic
from ..telemetry import names

__all__ = ["ProtectionDomain", "MemoryRegion", "QueuePair", "VerbsError"]


class VerbsError(Exception):
    """Invalid verbs usage (wrong PD, unregistered memory...)."""


class ProtectionDomain:
    """Groups QPs and MRs that may be used together."""

    def __init__(self, nic: RdmaNic):
        self.nic = nic
        self.mrs: List["MemoryRegion"] = []

    def reg_mr(self, buffer: Any) -> "MemoryRegion":
        """Explicitly register one buffer.

        With a Demikernel memory manager in transparent mode this is
        unnecessary (regions are pre-registered); it exists to model the
        legacy per-buffer path and to serve raw-verbs applications.
        """
        mr = MemoryRegion(self, buffer)
        self.mrs.append(mr)
        return mr


class MemoryRegion:
    """An explicitly registered memory range."""

    def __init__(self, pd: ProtectionDomain, buffer: Any):
        self.pd = pd
        self.buffer = buffer
        self.addr = buffer.addr
        self.length = buffer.capacity
        nic = pd.nic
        if not nic.iommu.covers(self.addr, self.length):
            self._handle = nic.iommu.map(self.addr, self.length)
            nic.host.cpu.charge_async(
                nic.costs.registration_ns(self.length, per_buffer=True)
            )
            nic.count(names.EXPLICIT_MR_REGISTRATIONS)
        else:
            self._handle = None  # already covered by a transparent region

    def dereg(self) -> None:
        if self._handle is not None:
            self.pd.nic.iommu.unmap(self._handle)
            self._handle = None


class QueuePair:
    """A reliable-connected QP bound to a protection domain."""

    def __init__(self, pd: ProtectionDomain):
        self.pd = pd
        self.nic = pd.nic
        self.hw: HwQp = self.nic.create_qp()
        self._next_wr = 1
        #: wr_id -> send CQE polled on another waiter's turn, kept for
        #: its own: the QP is the one reaper of its send CQ, however many
        #: processes (push drivers, a heartbeat and a commit publisher)
        #: await completions on it
        self._parked_cqes = {}

    # -- state -------------------------------------------------------------
    @property
    def qpn(self) -> int:
        return self.hw.qpn

    @property
    def send_cq(self) -> HwCq:
        return self.hw.send_cq

    @property
    def recv_cq(self) -> HwCq:
        return self.hw.recv_cq

    @property
    def connected(self) -> bool:
        return self.hw.connected

    def connect(self, remote_nic_addr: str, remote_qpn: int) -> None:
        self.nic.connect_qp(self.hw, remote_nic_addr, remote_qpn)

    def destroy(self) -> None:
        self.nic.destroy_qp(self.hw)

    def _wr_id(self, explicit: Optional[int]) -> int:
        if explicit is not None:
            return explicit
        wr = self._next_wr
        self._next_wr += 1
        return wr

    # -- work requests -------------------------------------------------------
    def post_recv(self, buffer: Any, wr_id: Optional[int] = None) -> int:
        wr = self._wr_id(wr_id)
        self.nic.post_recv(self.hw, wr, buffer)
        return wr

    def post_send(self, payload: bytes, wr_id: Optional[int] = None,
                  addr: Optional[int] = None) -> int:
        wr = self._wr_id(wr_id)
        self.nic.host.cpu.charge_async(self.nic.costs.doorbell_ns)
        self.nic.post_send(self.hw, wr, payload, addr=addr)
        return wr

    def post_write(self, payload: bytes, raddr: int,
                   wr_id: Optional[int] = None,
                   addr: Optional[int] = None) -> int:
        wr = self._wr_id(wr_id)
        self.nic.host.cpu.charge_async(self.nic.costs.doorbell_ns)
        self.nic.post_write(self.hw, wr, payload, raddr, addr=addr)
        return wr

    def post_read(self, raddr: int, rlen: int, local_buffer: Any,
                  wr_id: Optional[int] = None) -> int:
        wr = self._wr_id(wr_id)
        self.nic.host.cpu.charge_async(self.nic.costs.doorbell_ns)
        self.nic.post_read(self.hw, wr, raddr, rlen, local_buffer)
        return wr

    # -- completion helpers ---------------------------------------------------
    def wait_send_cqe(self, wr: int) -> Generator:
        """Sim-coroutine: the send CQE of work request *wr*, leaving the
        others polled on the way parked for their own waiters."""
        parked = self._parked_cqes
        send_cq = self.hw.send_cq
        while wr not in parked:
            cqes = send_cq.poll(16)
            if not cqes:
                yield send_cq.signal()
                continue
            for cqe in cqes:
                parked[cqe["wr_id"]] = cqe
        return parked.pop(wr)

    def wait_send_completion(self) -> Generator:
        """Sim-coroutine: poll the send CQ until one CQE arrives."""
        while True:
            cqes = self.send_cq.poll(1)
            if cqes:
                return cqes[0]
            yield self.send_cq.signal()

    def wait_recv_completion(self) -> Generator:
        """Sim-coroutine: poll the recv CQ until one CQE arrives."""
        while True:
            cqes = self.recv_cq.poll(1)
            if cqes:
                return cqes[0]
            yield self.recv_cq.signal()
