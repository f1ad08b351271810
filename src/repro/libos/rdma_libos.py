"""The RDMA library OS ("Catmint"): Demikernel queues over verbs.

RDMA NICs sit in the paper's middle column of Table 1: the device gives
reliable delivery and memory registration, but "applications must still
supply OS buffer management and flow control.  Applications have to
register memory before using it for I/O, and receivers must allocate
enough buffers of the right size for senders."  This libOS supplies
exactly those two missing pieces so applications never see them:

* **Buffer management** - a pool of fixed-size receive buffers drawn
  from the transparently-registered heap, pre-posted on every QP and
  re-posted as the application pops elements.
* **Flow control** - credit-based: a sender holds one credit per
  receive buffer it may consume; the receiver returns credits in
  batches as buffers are re-posted.  Without this, a fast sender draws
  RNR NAKs and QP resets (which the raw-verbs tests demonstrate).

One verbs ``send`` carries one sga: RDMA messages are naturally atomic,
so no framing layer is needed (contrast with the TCP libOSes).
"""

from __future__ import annotations

import struct
from typing import Generator, Optional

from ..core.api import LibOS
from ..core.queue import DemiQueue
from ..core.types import OP_PUSH, DemiError, QResult, QToken, Sga
from ..hw.nic import RdmaNic
from ..rdma.cm import RdmaCm
from ..rdma.verbs import QueuePair
from ..sim.sync import WaitQueue
from ..telemetry import names

__all__ = ["RdmaLibOS", "RdmaQueue", "RdmaListenQueue",
           "POOL_BUFFERS", "POOL_BUFFER_SIZE"]

POOL_BUFFERS = 64
POOL_BUFFER_SIZE = 8192

_MSG_DATA = 0
_MSG_CREDIT = 1
_HDR = struct.Struct("!BI")  # kind, value (credit count or payload length)


class RdmaQueue(DemiQueue):
    """A connected RDMA QP behind the queue abstraction."""

    kind = "rdma"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.qp: Optional[QueuePair] = None
        self.credits = 0
        self.credit_wq = WaitQueue(self.sim, "q%d.credits" % qd)
        self.consumed_since_return = 0
        self._rx_pump_proc = None
        #: wr_id -> CQE, parked for pushes awaiting their completion
        self._send_cqes = {}

    def attach_qp(self, qp: QueuePair) -> None:
        self.qp = qp
        self.credits = POOL_BUFFERS
        # Pre-post the receive pool: the buffer management applications
        # previously wrote by hand.
        for _ in range(POOL_BUFFERS):
            buf = self.libos.mm.alloc(POOL_BUFFER_SIZE)
            qp.post_recv(buf)
        self._rx_pump_proc = self.libos.sim.spawn(
            self.libos._rx_pump(self),
            name="%s.q%d.rx" % (self.libos.name, self.qd))

    def push_sga(self, sga: Sga, token: QToken) -> None:
        if self.qp is None:
            self._complete(token, QResult(OP_PUSH, self.qd,
                                          error="not connected"))
            return
        self.libos.sim.spawn(self.libos._push_driver(self, sga, token),
                             name="%s.q%d.tx" % (self.libos.name, self.qd))


class RdmaListenQueue(DemiQueue):
    """A passive rdmacm endpoint behind the queue abstraction."""

    kind = "rdma-listen"

    def __init__(self, libos, qd: int):
        super().__init__(libos, qd)
        self.port: Optional[int] = None
        self.listener = None

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self._complete(token, QResult(OP_PUSH, self.qd,
                                      error="push on listening queue"))


class RdmaLibOS(LibOS):
    """Demikernel over an RDMA NIC: transport atop verbs."""

    device_kind = "rdma"

    MAX_ELEMENT = POOL_BUFFER_SIZE - _HDR.size

    def __init__(self, host, nic: RdmaNic, cm: RdmaCm, name: str = "catmint",
                 core=None):
        super().__init__(host, name, core)
        self.nic = nic
        self.cm = cm
        self.offload_engine = nic.offload

    # -- datapath ---------------------------------------------------------------
    def _push_driver(self, queue: RdmaQueue, sga: Sga,
                     token: QToken) -> Generator:
        payload = sga.tobytes()
        if len(payload) > self.MAX_ELEMENT:
            self.qtokens.complete(token, QResult(
                OP_PUSH, queue.qd,
                error="element exceeds pool buffer size"))
            return
        # Flow control: block until the receiver has a buffer for us.
        while queue.credits == 0 and not queue.closed:
            self.count(names.FLOW_CONTROL_STALLS)
            yield queue.credit_wq.wait()
        if queue.closed:
            self.qtokens.complete(token, QResult(OP_PUSH, queue.qd,
                                                 error="closed"))
            return
        queue.credits -= 1
        sga.hold_all()
        # Zero-copy transmit: the NIC reads the element's own buffer, so
        # its extent is what the IOMMU validates - the wire message is a
        # header longer and would overrun a region's last slot.
        self.nic.iommu.translate(*sga.dma_ranges()[0])
        message = _HDR.pack(_MSG_DATA, len(payload)) + payload
        wr = queue.qp.post_send(message)
        # Wait for the NIC's ack-driven send completion.
        cqe = yield from self._wait_send_cqe(queue, wr)
        sga.release_all()
        if cqe["status"] != "ok":
            self.qtokens.complete(token, QResult(OP_PUSH, queue.qd,
                                                 error=cqe["status"]))
            return
        self.count(names.RDMA_TX_ELEMENTS)
        self.qtokens.complete(token, QResult(OP_PUSH, queue.qd,
                                             nbytes=sga.nbytes))

    def _wait_send_cqe(self, queue: RdmaQueue, wr: int) -> Generator:
        """Wait for a specific send CQE, leaving others for their owners."""
        qp = queue.qp
        pending = queue._send_cqes
        while wr not in pending:
            cqes = qp.send_cq.poll(16)
            if not cqes:
                yield qp.send_cq.signal()
                continue
            for cqe in cqes:
                pending[cqe["wr_id"]] = cqe
        return pending.pop(wr)

    def _rx_pump(self, queue: RdmaQueue) -> Generator:
        qp = queue.qp
        while not queue.closed:
            cqes = qp.recv_cq.poll(16)
            if not cqes:
                yield qp.recv_cq.signal()
                continue
            for cqe in cqes:
                if cqe["status"] != "ok":
                    self.count(names.RDMA_RX_ERRORS)
                    continue
                buf = cqe["buffer"]
                kind, value = _HDR.unpack(buf.read(0, _HDR.size))
                if kind == _MSG_CREDIT:
                    queue.credits += value
                    queue.credit_wq.pulse()
                    self.count(names.CREDIT_RETURNS_RECEIVED)
                    qp.post_recv(buf)  # control buffers recycle immediately
                    continue
                payload_buf = self.mm.alloc(max(1, value))
                payload_buf.write(0, buf.read(_HDR.size, value))
                self.count(names.RDMA_RX_ELEMENTS)
                queue.deliver(Sga.from_buffer(payload_buf, value))
                # Buffer management: re-post and batch credit returns.
                qp.post_recv(buf)
                queue.consumed_since_return += 1
                if queue.consumed_since_return >= POOL_BUFFERS // 2:
                    self._return_credits(queue)

    def _return_credits(self, queue: RdmaQueue) -> None:
        count = queue.consumed_since_return
        queue.consumed_since_return = 0
        queue.qp.post_send(_HDR.pack(_MSG_CREDIT, count))
        self.count(names.CREDIT_RETURNS_SENT)

    # -- control path -----------------------------------------------------------
    def socket(self, proto: str = "rdma") -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        return self._install(RdmaQueue).qd

    def bind(self, qd: int, port: int) -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        listen_queue = RdmaListenQueue(self, qd)
        listen_queue.port = port
        self._queues[qd] = listen_queue

    def listen(self, qd: int, backlog: int = 128) -> Generator:
        yield self.core.busy(self.costs.kernel_sock_op_ns)
        queue = self._lookup(qd)
        if not isinstance(queue, RdmaListenQueue) or queue.port is None:
            raise DemiError("listen before bind on qd %d" % qd)
        queue.listener = self.cm.listen(self.nic, queue.port)

    def accept(self, qd: int) -> Generator:
        queue = self._lookup(qd)
        if not isinstance(queue, RdmaListenQueue) or queue.listener is None:
            raise DemiError("accept on non-listening qd %d" % qd)
        qp = yield from queue.listener.accept()
        new_queue = self._install(RdmaQueue)
        new_queue.attach_qp(qp)
        self.count(names.ACCEPTS)
        return new_queue.qd

    def connect(self, qd: int, remote_addr: str, port: int) -> Generator:
        queue = self._lookup(qd)
        if not isinstance(queue, RdmaQueue):
            raise DemiError("connect on qd %d (%s)" % (qd, queue.kind))
        qp = yield from self.cm.connect(self.nic, remote_addr, port)
        queue.attach_qp(qp)
        self.count(names.CONNECTS)
        return 0

    def close(self, qd: int) -> Generator:
        queue = self._queues.get(qd)
        if isinstance(queue, RdmaQueue) and queue.qp is not None:
            queue.qp.destroy()
        if isinstance(queue, RdmaListenQueue) and queue.listener is not None:
            queue.listener.close()
        yield from LibOS.close(self, qd)
        # Reap a pump parked on an empty CQ of a dead connection.
        if isinstance(queue, RdmaQueue) and queue._rx_pump_proc is not None:
            queue._rx_pump_proc.interrupt("close")

    # -- crash teardown (kernel-side reclamation) -------------------------------
    def crash_abort_queue(self, queue, counters) -> None:
        """Destroy the QP so the NIC stops retransmitting into dead
        memory; the pre-posted receive pool returns to the heap with the
        rest of the process's buffers in ``MemoryManager.free_all``."""
        if isinstance(queue, RdmaQueue):
            if queue.qp is not None:
                queue.qp.destroy()
                counters.count(names.RECLAIM_QPS_DESTROYED)
            queue._send_cqes.clear()
            # Wake any push driver parked on flow-control credits so it
            # observes the closed queue and exits.
            queue.credit_wq.pulse()
            if queue._rx_pump_proc is not None:
                queue._rx_pump_proc.interrupt("proc_crash")
        elif isinstance(queue, RdmaListenQueue):
            if queue.listener is not None:
                queue.listener.close()
                counters.count(names.RECLAIM_LISTENERS_CLOSED)
