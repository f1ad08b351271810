"""Demikernel I/O queues (paper section 4.2).

A queue's data unit is atomic: an sga pushed in pops out whole.  The base
class gives every queue the pending-pop machinery that preserves the
exactly-one-wake-up property: each arriving element matches the *oldest*
outstanding pop token and completes only that token.

:class:`MemoryQueue` - the ``queue()`` syscall - is the reference
implementation and the substrate the pipeline queues (merge/filter/...)
buffer into.  Device-backed queues (network, RDMA, storage) subclass
:class:`DemiQueue` in the libOS packages.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Interrupt, Process
from ..sim.sync import WaitQueue
from ..telemetry import names
from .types import OP_POP, OP_PUSH, DemiError, QResult, QToken, Sga

__all__ = ["DemiQueue", "ListeningQueue", "MemoryQueue"]


class DemiQueue:
    """Abstract queue: subclasses implement element arrival/departure."""

    kind = "abstract"

    def __init__(self, libos, qd: int):
        self.libos = libos
        self.sim = libos.sim
        self.qd = qd
        self.closed = False
        self.eof = False  # peer finished: drained pops complete with "eof"
        #: transport-death detail: pops after fail_pops() carry this error
        self.error: Optional[str] = None
        #: pops issued before their element arrived, FIFO
        self._pending_pops: Deque[QToken] = deque()
        #: elements (sga, value) that arrived before anyone popped, FIFO
        self._ready: Deque[Tuple[Sga, object]] = deque()
        #: pulsed when _ready drains (producers with bounded buffers wait)
        self.space_wq = WaitQueue(self.sim, "q%d.space" % qd)
        self.capacity: Optional[int] = None  # None = unbounded
        #: processes that live as long as the queue; reap() ends them
        self._pumps: List = []

    # -- the two operations, called by the LibOS ------------------------------
    def push_sga(self, sga: Sga, token: QToken) -> None:
        """Start an asynchronous push; complete *token* when done.

        A kind that spawns a driver process per operation: the driver
        takes its first step a turn later and is in no pump list, so if
        the owner dies in the instant it issued the operation nothing
        interrupts it.  Kernel reclaim closes every queue before it frees
        any buffer, so a driver looks at ``closed`` before it touches the
        element, retires its token and stops
        (``tests/core/test_queue_kinds.py`` kills every kind that way).
        """
        raise NotImplementedError

    def pop_sga(self, token: QToken) -> None:
        """Register an asynchronous pop; complete *token* on arrival."""
        if self.closed:
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        if self._ready:
            sga, value = self._ready.popleft()
            if self.libos.tracer.tracing:
                self._trace_depth()
            self.space_wq.pulse()
            self._complete(token, QResult(OP_POP, self.qd, sga=sga,
                                          nbytes=sga.nbytes, value=value))
            return
        if self.eof:
            self._complete(token, QResult(OP_POP, self.qd,
                                          error=self.error or "eof"))
            return
        self._pending_pops.append(token)

    # -- element arrival (subclasses call this) ---------------------------------
    def deliver(self, sga: Sga, value: object = None) -> None:
        """An element arrived: match the oldest pending pop or buffer it.

        *value* rides along in the QResult (e.g. a datagram's source
        address); buffered elements keep it too.  This is the one place a
        received element is born; a closed queue frees it instead.
        """
        if self.closed:
            self.libos.sga_free(sga)
            return
        if self._pending_pops:
            token = self._pending_pops.popleft()
            # Tokens are single-shot; complete exactly this one and stop.
            self._complete(token, QResult(OP_POP, self.qd, sga=sga,
                                          nbytes=sga.nbytes, value=value))
            return
        self._ready.append((sga, value))
        if self.libos.tracer.tracing:
            self._trace_depth()

    def deliver_payload(self, payload: bytes, counter: str,
                        value: object = None) -> None:
        """An element arrived off the device as bytes: land it in a
        registered buffer (where DMA would have put it), count it under
        the libOS's *counter* and :meth:`deliver` it."""
        nbytes = len(payload)
        buf = self.libos.mm.alloc(max(1, nbytes))
        buf.write(0, payload)
        self.libos.counters.count(counter)
        self.deliver(Sga.from_buffer(buf, nbytes), value)

    def _trace_depth(self) -> None:
        """Gauge of elements buffered ahead of their pop, per libOS."""
        self.libos.counters.gauge(names.QUEUE_DEPTH).set(len(self._ready))

    def cancel_pop(self, token: QToken) -> None:
        """Unregister a pending pop (the qtoken-cancellation path).

        The pop simply stops being a match candidate: an element arriving
        later buffers in ``_ready`` (or matches a younger pop) instead of
        completing a dead token, so no data is lost.
        """
        try:
            self._pending_pops.remove(token)
        except ValueError:
            pass

    def mark_eof(self) -> None:
        """No more elements will ever arrive: fail outstanding pops."""
        if self.eof or self.closed:
            return
        self.eof = True
        while self._pending_pops:
            token = self._pending_pops.popleft()
            self._complete(token, QResult(OP_POP, self.qd, error="eof"))

    def fail_pops(self, error: str) -> None:
        """The transport died hard (RST, QP error): outstanding and
        future pops fail with *error* instead of a clean ``"eof"``, so
        the application can tell a peer crash from a graceful close."""
        if self.eof or self.closed:
            return
        self.eof = True
        self.error = error
        while self._pending_pops:
            token = self._pending_pops.popleft()
            self._complete(token, QResult(OP_POP, self.qd, error=error))

    def _complete(self, token: QToken, result: QResult) -> None:
        self.libos.qtokens.complete(token, result)

    # -- state -------------------------------------------------------------------
    def has_room(self) -> bool:
        return self.capacity is None or len(self._ready) < self.capacity

    def close(self) -> None:
        """Fail outstanding pops, free the elements nobody popped and
        refuse further traffic."""
        if self.closed:
            return
        self.closed = True
        while self._pending_pops:
            token = self._pending_pops.popleft()
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
        while self._ready:
            sga, _value = self._ready.popleft()
            self.libos.sga_free(sga)
        self.space_wq.pulse()

    # -- the device half: control path and teardown ---------------------------
    # ``LibOS.bind`` / ``listen`` / ``accept`` / ``connect`` / ``push_to`` /
    # ``close`` and kernel reclaim delegate here.  A queue kind overrides
    # the calls that mean something on its device; the rest refuse (control
    # path) or do nothing (teardown).
    def _refused(self, call: str) -> DemiError:
        return DemiError("%s qd %d (%s)" % (call, self.qd, self.kind))

    def bind(self, *args, **kw) -> Generator:
        raise self._refused("bind on")
        yield  # pragma: no cover

    def listen(self, *args, **kw) -> Generator:
        raise self._refused("listen before bind on")
        yield  # pragma: no cover

    def accept(self) -> Generator:
        raise self._refused("accept on non-listening")
        yield  # pragma: no cover

    def connect(self, *args, **kw) -> Generator:
        raise self._refused("connect on")
        yield  # pragma: no cover

    def push_sga_to(self, sga: Sga, token: QToken, remote) -> None:
        """Start a push to an explicit address (datagram kinds only)."""
        raise self._refused("push_to on")

    def shutdown(self) -> Generator:
        """Sim-coroutine: let go of the device (FIN, QP destroy, fd close)
        before ``LibOS.close`` retires the descriptor."""
        return
        yield  # pragma: no cover

    def _spawn_pump(self, gen: Generator, role: str) -> None:
        self._pumps.append(self.sim.spawn(
            gen, name="%s.q%d.%s" % (self.libos.name, self.qd, role)))

    def reap(self) -> None:
        """End the processes this queue spawned for its own lifetime - a
        pump may be parked forever on a peer that is unreachable."""
        for pump in self._pumps:
            if pump.alive:
                pump.interrupt("queue closed")

    def crash_abort(self, counters) -> None:
        """The owning process died (:mod:`repro.kernelos.reclaim`, right
        after ``close()``): sever the protocol and device state underneath
        - RST, QP destroy, port unbind - counting it on *counters* (the
        host's ``reclaim`` scope), and reap the pumps."""
        self.reap()

    def __repr__(self) -> str:  # pragma: no cover
        return "<%s qd=%d ready=%d pending=%d%s>" % (
            type(self).__name__, self.qd, len(self._ready),
            len(self._pending_pops), " closed" if self.closed else "")


class ListeningQueue(DemiQueue):
    """A passive socket: each pop completes with one accepted connection,
    ``QResult(OP_POP, qd, value=new_qd)``, so connections and data share
    one ``wait_any`` (section 4.4).  A pop runs the kind's own
    :meth:`accept` (which ``LibOS.accept`` calls directly) in a driver; a
    cancelled or closed pop interrupts it before it takes a connection,
    so it installs no queue and the next pop gets the connection."""

    #: what the kind listens with once ``listen`` ran (a netstack
    #: ``TcpListener``, an rdmacm ``CmListener``); closed on the way out
    listener = None

    def __init__(self, libos, qd: int, port: int):
        super().__init__(libos, qd)
        self.port = port
        self._accepts: Dict[QToken, Process] = {}  # pop token -> driver

    def push_sga(self, sga: Sga, token: QToken) -> None:
        self._complete(token, QResult(OP_PUSH, self.qd,
                                      error="push on listening queue"))

    def pop_sga(self, token: QToken) -> None:
        if self.closed:
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        self._accepts[token] = self.sim.spawn(
            self._accept_driver(token),
            name="%s.q%d.accept" % (self.libos.name, self.qd))

    def _accept_driver(self, token: QToken) -> Generator:
        try:
            qd = yield from self.accept()
        except Interrupt:
            return  # cancelled or closed: the token is settled already
        except Exception as err:
            result = QResult(OP_POP, self.qd, error=str(err))
        else:
            result = QResult(OP_POP, self.qd, value=qd)
        del self._accepts[token]
        self._complete(token, result)

    def cancel_pop(self, token: QToken) -> None:
        driver = self._accepts.pop(token, None)
        if driver is not None:
            driver.interrupt("accept cancelled")

    def close(self) -> None:
        super().close()
        accepts, self._accepts = self._accepts, {}
        for token, driver in accepts.items():
            driver.interrupt("queue closed")
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))

    def shutdown(self) -> Generator:
        if self.listener is not None:
            self.listener.close()
        return
        yield  # pragma: no cover

    def crash_abort(self, counters) -> None:
        if self.listener is not None:
            self.listener.close()
            counters.listeners_closed += 1


class MemoryQueue(DemiQueue):
    """A host-memory queue: push completes as soon as the element lands."""

    kind = "memory"

    def __init__(self, libos, qd: int, capacity: Optional[int] = None):
        super().__init__(libos, qd)
        self.capacity = capacity

    def push_sga(self, sga: Sga, token: QToken) -> None:
        if self.closed:
            self._complete(token, QResult(OP_PUSH, self.qd, error="closed"))
            return
        if not self.has_room():
            self._complete(token, QResult(OP_PUSH, self.qd, error="full"))
            return
        self.deliver(sga)
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes))
