"""The RDMA library OS ("Catmint"): Demikernel queues over verbs.

RDMA NICs sit in the paper's middle column of Table 1: the device gives
reliable delivery and memory registration, but "applications must still
supply OS buffer management and flow control.  Applications have to
register memory before using it for I/O, and receivers must allocate
enough buffers of the right size for senders."  This libOS supplies
exactly those two missing pieces so applications never see them:

* **Buffer management** - a pool of fixed-size receive buffers drawn
  from the transparently-registered heap, pre-posted on every QP and
  re-posted as the application frees the elements it popped.  A pop is
  no copy: it is a slice of the pool buffer the message landed in, lent
  to the application (``MemoryManager.lend``) until ``sga_free`` gives
  it back.
* **Flow control** - credit-based: a sender holds one credit per
  receive buffer it may consume; the receiver returns credits in
  batches as buffers are re-posted.  Without this, a fast sender draws
  RNR NAKs and QP resets (which the raw-verbs tests demonstrate).  So
  an application that holds popped elements slows its sender through
  the credits it has not returned, and never starves the NIC.

One verbs ``send`` carries one sga: RDMA messages are naturally atomic,
so no framing layer is needed (contrast with the TCP libOSes).
"""

from __future__ import annotations

import struct
from typing import Generator, List, Optional

from ..core.api import LibOS
from ..core.queue import DemiQueue, ListeningQueue
from ..core.types import OP_PUSH, QResult, QToken, Sga, SgaSegment
from ..hw.nic import RdmaNic
from ..rdma.cm import RdmaCm
from ..rdma.verbs import QueuePair
from ..sim.sync import WaitQueue

__all__ = ["RdmaLibOS"]

POOL_BUFFERS = 64
POOL_BUFFER_SIZE = 8192
#: credits a sender starts with: one short of the receiver's pool.
#: Credits come back ``POOL_BUFFERS // 2`` at a time and fewer than
#: ``POOL_BUFFERS`` are ever out, so at most one credit message is in
#: flight, and the buffer kept for it is posted however many elements
#: the application holds - a credit return never draws an RNR NAK.
CREDITS = POOL_BUFFERS - 1

_MSG_DATA = 0
_MSG_CREDIT = 1
_HDR = struct.Struct("!BI")  # kind, value (credit count or payload length)


#: largest element one pool buffer carries behind the header
MAX_ELEMENT = POOL_BUFFER_SIZE - _HDR.size


class RdmaQueue(DemiQueue):
    """A connected RDMA QP behind the queue abstraction."""

    kind = "rdma"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.qp: Optional[QueuePair] = None
        self.credits = 0
        self.credit_wq = WaitQueue(self.sim, "q%d.credits" % qd)
        self.consumed_since_return = 0
        #: the receive pool, for the queue's lifetime: each buffer is
        #: posted on the QP or lent to the application (or a push)
        self.pool: List = []

    def attach_qp(self, qp: QueuePair) -> None:
        self.qp = qp
        self.credits = CREDITS
        # Pre-post the receive pool: the buffer management applications
        # previously wrote by hand.
        for _ in range(POOL_BUFFERS):
            buf = self.libos.mm.alloc(POOL_BUFFER_SIZE)
            self.pool.append(buf)
            qp.post_recv(buf)
        self._spawn_pump(self._rx_pump(), "rx")

    def push_sga(self, sga: Sga, token: QToken) -> None:
        if self.qp is None:
            self._complete(token, QResult(OP_PUSH, self.qd,
                                          error="not connected"))
            return
        # The push holds the element's buffers from now until its send
        # completes: a lent slice the application frees meanwhile - an
        # echoed pop - is not re-posted while the NIC still reads it.
        sga.hold_all()
        self.sim.spawn(self._push_driver(sga, token),
                       name="%s.q%d.tx" % (self.libos.name, self.qd))

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        error = yield from self._send(sga)
        sga.release_all()
        if error is not None:
            self._complete(token, QResult(OP_PUSH, self.qd, error=error))
            return
        self.libos.counters.rdma_tx_elements += 1
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes))

    def _send(self, sga: Sga) -> Generator:
        """Sim-coroutine: send one element as one message; returns None,
        or why it was not delivered."""
        libos = self.libos
        if self.closed:  # died in the instant it pushed: the element is gone
            return "closed"
        payload = sga.tobytes()
        if len(payload) > MAX_ELEMENT:
            return "element exceeds pool buffer size"
        # Flow control: block until the receiver has a buffer for us.
        while self.credits == 0 and not self.closed:
            libos.counters.flow_control_stalls += 1
            yield self.credit_wq.wait()
        if self.closed:
            return "closed"
        # Zero-copy transmit: the NIC reads the element's own buffers, so
        # their extents are what the IOMMU validates - the wire message
        # is a header longer and would overrun a region's last slot.
        for addr, size in sga.dma_ranges():
            libos.nic.iommu.translate(addr, size)
        self.credits -= 1
        message = _HDR.pack(_MSG_DATA, len(payload)) + payload
        wr = self.qp.post_send(message)
        # Wait for the NIC's ack-driven send completion.
        cqe = yield from self.qp.wait_send_cqe(wr)
        return None if cqe["status"] == "ok" else cqe["status"]

    def _rx_pump(self) -> Generator:
        qp, libos = self.qp, self.libos
        while not self.closed:
            cqes = qp.recv_cq.poll(16)
            if not cqes:
                yield qp.recv_cq.signal()
                continue
            for cqe in cqes:
                if cqe["status"] != "ok":
                    libos.counters.rdma_rx_errors += 1
                    continue
                buf = cqe["buffer"]
                kind, value = _HDR.unpack(buf.read(0, _HDR.size))
                if kind == _MSG_CREDIT:
                    self.credits += value
                    self.credit_wq.pulse()
                    libos.counters.credit_returns_received += 1
                    qp.post_recv(buf)  # control buffers recycle immediately
                    continue
                # The element is the message where it landed: lend the
                # application that slice of the pool buffer, which goes
                # back on the QP when the slice comes back.
                libos.counters.rdma_rx_elements += 1
                segment = libos.mm.lend(
                    SgaSegment(buf, _HDR.size, value, lent=True))
                buf.on_last_release(self._repost)
                self.deliver(Sga([segment]))

    def _repost(self, buf) -> None:
        """The last reference on a lent pool buffer dropped - the
        application freed its slice and no push still reads it: post it
        again and batch the credit returns.  A closed queue or an errored
        QP takes nothing more; its pool goes back to the heap."""
        if self.closed or self.qp.hw.error:
            return
        self.qp.post_recv(buf)
        self.consumed_since_return += 1
        if self.consumed_since_return >= POOL_BUFFERS // 2:
            self._return_credits()

    def _return_credits(self) -> None:
        count = self.consumed_since_return
        self.consumed_since_return = 0
        self.qp.post_send(_HDR.pack(_MSG_CREDIT, count))
        self.libos.counters.credit_returns_sent += 1

    def bind(self, port: int) -> Generator:
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        # The descriptor becomes a passive rdmacm endpoint.
        self.libos._seat(self.qd, RdmaListenQueue, port)

    def connect(self, remote_addr: str, port: int) -> Generator:
        libos = self.libos
        qp = yield from libos.cm.connect(libos.nic, remote_addr, port)
        self.attach_qp(qp)
        libos.counters.connects += 1
        return 0

    def close(self) -> None:
        super().close()
        # Wake any push driver parked on flow-control credits so it
        # observes the closed queue and exits.
        self.credit_wq.pulse()

    def shutdown(self) -> Generator:
        if self.qp is not None:
            self.qp.destroy()
            # The destroyed QP has flushed every posted receive: the pool
            # goes back to the heap, and a buffer a device still holds is
            # deallocated when it lets go (free-protection).
            for buf in self.pool:
                self.libos.mm.free(buf)
        return
        yield  # pragma: no cover

    def crash_abort(self, counters) -> None:
        """Destroy the QP so the NIC stops retransmitting into dead
        memory; the pre-posted receive pool returns to the heap with the
        rest of the process's buffers in ``MemoryManager.free_all``."""
        if self.qp is not None:
            self.qp.destroy()
            counters.qps_destroyed += 1
        self.reap()


class RdmaListenQueue(ListeningQueue):
    """A passive rdmacm endpoint behind the queue abstraction."""

    kind = "rdma-listen"

    def listen(self, backlog: int = 128) -> Generator:
        if self.listener is not None:
            raise self._refused("listen again on")
        yield self.libos.core.busy(self.libos.costs.kernel_sock_op_ns)
        self.listener = self.libos.cm.listen(self.libos.nic, self.port)

    def accept(self) -> Generator:
        if self.listener is None:
            raise self._refused("accept on non-listening")
        qp = yield from self.listener.accept()
        new_queue = self.libos._install(RdmaQueue)
        new_queue.attach_qp(qp)
        self.libos.counters.accepts += 1
        return new_queue.qd


class RdmaLibOS(LibOS):
    """Demikernel over an RDMA NIC: transport atop verbs."""

    device_kind = "rdma"

    def __init__(self, host, nic: RdmaNic, cm: RdmaCm, name: str = "catmint"):
        super().__init__(host, name)
        self.nic = nic
        self.cm = cm
        self.offload_engine = nic.offload

    def socket(self, proto: str = "rdma") -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        return self._install(RdmaQueue).qd
