"""A verbs-style programming layer over :class:`repro.hw.nic.RdmaNic`.

This is the substrate today's RDMA applications program against (and the
one the paper says demands "enormous engineering effort"): protection
domains, queue pairs, and completion-queue polling; memory is registered
by the host's memory manager.  The RDMA libOS
(``repro.libos.rdma_libos``) builds the Demikernel abstraction on top of
it, supplying the buffer management and flow control the hardware does
not.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hw.nic import HwCq, HwQp, RdmaNic

__all__ = ["ProtectionDomain", "QueuePair", "VerbsError"]


class VerbsError(Exception):
    """Invalid verbs usage (wrong PD, unregistered memory...)."""


class ProtectionDomain:
    """Groups the QPs that may be used together."""

    def __init__(self, nic: RdmaNic):
        self.nic = nic


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

    def connect(self, remote_nic_addr: str, remote_qpn: int) -> None:
        self.nic.connect_qp(self.hw, remote_nic_addr, remote_qpn)

    def destroy(self) -> None:
        self.nic.destroy_qp(self.hw)

    def _wr_id(self) -> int:
        wr = self._next_wr
        self._next_wr += 1
        return wr

    # -- work requests -------------------------------------------------------
    def post_recv(self, buffer: Any) -> int:
        wr = self._wr_id()
        self.nic.post_recv(self.hw, wr, buffer)
        return wr

    def post_send(self, payload: bytes, addr: Optional[int] = None) -> int:
        wr = self._wr_id()
        self.nic.host.cpu.charge_async(self.nic.costs.doorbell_ns)
        self.nic.post_send(self.hw, wr, payload, addr=addr)
        return wr

    def post_write(self, payload: bytes, raddr: int,
                   addr: Optional[int] = None) -> int:
        wr = self._wr_id()
        self.nic.host.cpu.charge_async(self.nic.costs.doorbell_ns)
        self.nic.post_write(self.hw, wr, payload, raddr, addr=addr)
        return wr

    def post_read(self, raddr: int, rlen: int, local_buffer: Any) -> int:
        wr = self._wr_id()
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
