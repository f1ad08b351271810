"""rdmacm-style connection management.

Connection setup is a *control-path* operation (paper section 4.1): it is
infrequent, goes through kernel services, and costs tens of microseconds.
The :class:`RdmaCm` models that: a rendezvous registry shared by all hosts
on a fabric, where ``connect`` exchanges QP numbers with a listener and
charges a control-path delay before the data path opens.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from ..hw.nic import RdmaNic
from ..sim.engine import Simulator
from ..sim.sync import WaitQueue
from .verbs import ProtectionDomain, QueuePair, VerbsError

__all__ = ["RdmaCm", "CmListener"]

#: QP-number exchange: a couple of kernel-mediated round trips.
CONNECT_DELAY_NS = 30_000


class CmListener:
    """A passive rdmacm endpoint: accepts incoming QP connections."""

    def __init__(self, cm: "RdmaCm", nic: RdmaNic, port: int):
        self.cm = cm
        self.nic = nic
        self.port = port
        #: queued (qp, client_established_completion) pairs
        self._accept_queue: List[Tuple[QueuePair, object]] = []
        self.accept_wq = WaitQueue(cm.sim, "cm.accept")
        self.closed = False

    def _deliver(self, qp: QueuePair, established) -> None:
        if self.closed:
            # Raced with close(): the request arrives after the listener
            # went away. Reject instead of queueing into the void.
            qp.destroy()
            established.fail(VerbsError(
                "connection rejected: listener %s:%d closed"
                % (self.nic.addr, self.port)))
            return
        self._accept_queue.append((qp, established))
        self.accept_wq.pulse()

    def accept(self) -> Generator:
        """Sim-coroutine: wait for and return the next connected QP."""
        while not self._accept_queue:
            if self.closed:
                raise VerbsError("listener %s:%d closed"
                                 % (self.nic.addr, self.port))
            yield self.accept_wq.wait()
        qp, established = self._accept_queue.pop(0)
        # The client's connect() completes only now - after the server
        # accepted - once the notification travels back (rdmacm semantics).
        self.cm.sim.call_in(self.cm.connect_delay_ns // 2,
                            established.trigger, None)
        return qp

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.cm._listeners.pop((self.nic.addr, self.port), None)
        # Pending connect requests nobody accepted must be rejected, not
        # stranded: the client's connect() is parked on *established* and
        # would otherwise hang forever.
        pending, self._accept_queue = self._accept_queue, []
        for qp, established in pending:
            qp.destroy()
            established.fail(VerbsError(
                "connection rejected: listener %s:%d closed"
                % (self.nic.addr, self.port)))
        self.accept_wq.pulse()


class RdmaCm:
    """The fabric-wide rendezvous service."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.connect_delay_ns = CONNECT_DELAY_NS
        self._listeners: Dict[Tuple[str, int], CmListener] = {}

    def listen(self, nic: RdmaNic, port: int) -> CmListener:
        key = (nic.addr, port)
        if key in self._listeners:
            raise VerbsError("already listening on %s:%d" % key)
        listener = CmListener(self, nic, port)
        self._listeners[key] = listener
        return listener

    def connect(self, nic: RdmaNic, remote_addr: str, port: int) -> Generator:
        """Sim-coroutine: returns a connected client-side QueuePair."""
        yield self.sim.timeout(self.connect_delay_ns)
        listener = self._listeners.get((remote_addr, port))
        if listener is None:
            raise VerbsError("connection refused: %s:%d" % (remote_addr, port))
        client_qp = QueuePair(ProtectionDomain(nic))
        server_qp = QueuePair(ProtectionDomain(listener.nic))
        client_qp.connect(listener.nic.addr, server_qp.qpn)
        server_qp.connect(nic.addr, client_qp.qpn)
        # The server learns of the request after the request leg; the
        # client's connect completes only after the server accepts (the
        # listener fires *established* then).
        established = self.sim.completion("cm.established")
        self.sim.call_in(self.connect_delay_ns // 2, listener._deliver,
                         server_qp, established)
        yield established
        return client_qp
