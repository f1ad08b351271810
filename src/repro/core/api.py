"""The Demikernel system-call interface (Figure 3 of the paper).

:class:`LibOS` is the abstract base every library OS implements.  It owns
the queue-descriptor table, the qtoken table, and the data-path calls
(``push``/``pop``/``wait_*``/``blocking_*``) plus the queue-pipeline
control calls (``queue``/``merge``/``filter``/``sort``/``map``/
``qconnect``).  The device-facing control path is split in two: *which*
queue class a descriptor gets is each libOS's ``socket`` / ``open`` /
``creat``; what ``bind`` / ``listen`` / ``accept`` / ``connect`` /
``push_to`` / ``close`` then do is the queue's own (:class:`DemiQueue`'s
device half), reached from here by descriptor.

Conventions (see DESIGN.md):

* data-path calls are plain functions - they never block, exactly as the
  paper requires; they return a qtoken;
* ``wait``/``wait_any``/``wait_all`` and all control-path calls are
  sim-coroutines - invoke them with ``yield from``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Type

from ..sim.cpu import Core
from ..sim.engine import AnyWait
from ..sim.host import Host
from ..telemetry import names
from .queue import DemiQueue, MemoryQueue
from .types import DemiError, DemiTimeout, DeviceFailed, QResult, QToken, Sga
from .wait import QTokenTable

__all__ = ["LibOS"]

#: ``LibOS._push``'s *remote* for a plain ``push`` (``None`` is an address
#: ``push_to`` may be given: an unaddressed datagram the kind refuses)
_NO_REMOTE = object()


class LibOS:
    """Base library OS: Figure 3's interface over an accelerator."""

    #: subclasses set this to the accelerator category they serve
    device_kind = "none"

    def __init__(self, host: Host, name: str, core: Optional[Core] = None):
        self.host = host
        self.sim = host.sim
        self.costs = host.costs
        self.tracer = host.tracer
        self.mm = host.mm
        self.name = name
        self.core = core or host.cpu
        self.counters = self.tracer.scope(name)
        self.qtokens = QTokenTable(self.sim, self.tracer, name)
        #: open queues; a qd is never reused, so one below ``_next_qd``
        #: that is not here was closed (and close() of it is a no-op)
        self._queues: Dict[int, DemiQueue] = {}
        self._next_qd = 1
        self.offload_engine = None

    # ------------------------------------------------------------ qd table
    def _install(self, queue_cls: Type[DemiQueue], *args, **kw) -> DemiQueue:
        queue = self._seat(self._next_qd, queue_cls, *args, **kw)
        self._next_qd += 1
        return queue

    def _seat(self, qd: int, queue_cls: Type[DemiQueue], *args,
              **kw) -> DemiQueue:
        """Put a new *queue_cls* behind *qd* - a fresh descriptor, or the
        one ``bind`` turns from an unconnected socket into a passive one."""
        queue = self._queues[qd] = queue_cls(self, qd, *args, **kw)
        return queue

    def _lookup(self, qd: int) -> DemiQueue:
        queue = self._queues.get(qd)
        if queue is None:
            if 1 <= qd < self._next_qd:
                raise DemiError("queue descriptor %d is closed" % qd)
            raise DemiError("bad queue descriptor %d" % qd)
        return queue

    def queue_of(self, qd: int) -> DemiQueue:
        """Public inspection access to the queue object behind a qd."""
        return self._lookup(qd)

    # ------------------------------------------------- data path (Figure 3)
    def push(self, qd: int, sga: Sga) -> QToken:
        """Non-blocking push of one atomic element; returns a qtoken."""
        return self._push(qd, sga)

    def _push(self, qd: int, sga: Sga, remote=_NO_REMOTE) -> QToken:
        """``push`` and ``push_to``: a qtoken for one element, handed to
        the queue kind - with *remote*, to its datagram half."""
        queue = self._lookup(qd)
        if sga.nsegments == 0:
            raise DemiError("push of an empty sga")
        self.core.charge_async(self.costs.libos_push_ns + self.costs.qtoken_ns)
        self.counters.pushes += 1
        token, _done = self.qtokens.create()
        if self.tracer.tracing:
            self.qtokens.trace(token, names.SPAN_PUSH, qd=qd,
                               nbytes=sga.nbytes)
        try:
            if remote is _NO_REMOTE:
                queue.push_sga(sga, token)
            else:
                queue.push_sga_to(sga, token, remote)
        except DemiError:
            self.qtokens.cancel(token)  # the kind refused: strand no token
            raise
        return token

    def pop(self, qd: int) -> QToken:
        """Non-blocking pop request for the next element; returns a qtoken."""
        queue = self._lookup(qd)
        self.core.charge_async(self.costs.libos_pop_ns + self.costs.qtoken_ns)
        self.counters.pops += 1
        token, _done = self.qtokens.create(on_cancel=queue.cancel_pop)
        if self.tracer.tracing:
            self.qtokens.trace(token, names.SPAN_POP, qd=qd)
        queue.pop_sga(token)
        return token

    def cancel(self, token: QToken) -> None:
        """Abandon a not-yet-completed qtoken (e.g. a pop on a stalled
        device).  The token retires immediately, its queue forgets the
        operation, and a late device completion is dropped - it can never
        wake a waiter."""
        self.core.charge_async(self.costs.qtoken_ns)
        self.counters.cancels += 1
        self.qtokens.cancel(token)

    # Each wait is one frame.  A device whose recovery ladder is exhausted
    # completes a token with ``value`` holding the :class:`DeviceFailed`,
    # which the wait raises; string errors ('closed'...) return in-band.

    def wait(self, token: QToken) -> Generator:
        """Block on one qtoken; returns its QResult (with the data).

        Raises :class:`DeviceFailed` if the operation was lost to an
        unrecoverable device (retry ladder exhausted / crash abort).
        """
        qtokens = self.qtokens
        entered = self.sim.now if self.tracer.tracing else None
        result = yield qtokens.completion_of(token)
        qtokens.retire(token)
        yield self.core.busy(self.costs.wait_dispatch_ns)
        self.counters.waits += 1
        if entered is not None:
            qtokens._trace_dispatch(entered)
        if isinstance(result.value, DeviceFailed):
            raise result.value
        return result

    def wait_any(self, tokens: Sequence[QToken],
                 timeout_ns: Optional[int] = None) -> Generator:
        """Block until any token completes: (index, QResult).

        The improved-epoll of section 4.4: returns the data directly and
        wakes exactly one waiter per completion, because each token has
        exactly one completion and this call consumes it.  A timeout
        raises :class:`DemiTimeout`; the losing (and timed-out) tokens
        stay waitable.
        """
        if not tokens:
            raise DemiError("wait_any on no tokens")
        qtokens = self.qtokens
        entered = self.sim.now if self.tracer.tracing else None
        index, result = yield AnyWait(
            qtokens.completions_of(tokens),
            None if timeout_ns is None else self.sim.now + timeout_ns)
        if index == len(tokens):
            self.counters.wait_timeouts += 1
            raise DemiTimeout(timeout_ns, tokens)
        qtokens.retire(tokens[index])
        yield self.core.busy(self.costs.wait_dispatch_ns)
        self.counters.waits += 1
        if entered is not None:
            qtokens._trace_dispatch(entered)
        if isinstance(result.value, DeviceFailed):
            raise result.value
        return index, result

    def wait_any_n(self, tokens: Sequence[QToken],
                   timeout_ns: Optional[int] = None) -> Generator:
        """Block until any token completes, then drain every ready one.

        Returns a non-empty list of ``(index, QResult)`` pairs sorted by
        index - all the completions that were ready at the wake-up
        instant, in one crossing (one ``wait_dispatch`` charge for the
        whole batch, where N waits would pay N).  Every returned token is
        retired, so the exactly-one-waiter guarantee is untouched; tokens
        not returned stay waitable.  A timeout raises
        :class:`DemiTimeout`.
        """
        if not tokens:
            raise DemiError("wait_any_n on no tokens")
        qtokens = self.qtokens
        entered = self.sim.now if self.tracer.tracing else None
        events = qtokens.completions_of(tokens)
        index, _result = yield AnyWait(
            events, None if timeout_ns is None else self.sim.now + timeout_ns)
        if index == len(tokens):
            self.counters.wait_timeouts += 1
            raise DemiTimeout(timeout_ns, tokens)
        # the winner and whatever else is done at this instant, in order
        ready = [(i, done._value) for i, done in enumerate(events)
                 if done._done]
        for i, _ in ready:
            qtokens.retire(tokens[i])
        yield self.core.busy(self.costs.wait_dispatch_ns)
        counters = self.counters
        counters.waits += 1
        counters.batch_waits += 1
        counters.batch_wait_completions += len(ready)
        if entered is not None:
            qtokens._trace_dispatch(entered)
        for _i, result in ready:
            if isinstance(result.value, DeviceFailed):
                raise result.value
        return ready

    def wait_all(self, tokens: Sequence[QToken],
                 timeout_ns: Optional[int] = None) -> Generator:
        """Block until every token completes: list of QResults.

        Each completion is taken as it comes (one counted wait each) and
        the batch pays one ``wait_dispatch``.  A timeout raises
        :class:`DemiTimeout`; the tokens not yet taken stay waitable.
        """
        if not tokens:
            return []
        qtokens = self.qtokens
        results: List[Optional[QResult]] = [None] * len(tokens)
        remaining = list(range(len(tokens)))
        deadline = None if timeout_ns is None else self.sim.now + timeout_ns
        while remaining:
            now = self.sim.now
            if deadline is not None and now >= deadline:
                # Budget spent between rounds: raise right away instead
                # of parking on every remaining completion until now.
                self.counters.wait_timeouts += 1
                raise DemiTimeout(timeout_ns, tokens)
            entered = now if self.tracer.tracing else None
            index, result = yield AnyWait(
                qtokens.completions_of([tokens[i] for i in remaining]),
                deadline)
            if index == len(remaining):
                self.counters.wait_timeouts += 1
                raise DemiTimeout(timeout_ns, tokens)
            taken = remaining.pop(index)
            qtokens.retire(tokens[taken])
            self.counters.waits += 1
            if entered is not None:
                qtokens._trace_dispatch(entered)
            results[taken] = result
        yield self.core.busy(self.costs.wait_dispatch_ns)
        for result in results:
            if isinstance(result.value, DeviceFailed):
                raise result.value
        return results

    def blocking_push(self, qd: int, sga: Sga) -> Generator:
        """push + wait on the returned qtoken."""
        token = self.push(qd, sga)
        return (yield from self.wait(token))

    def blocking_pop(self, qd: int) -> Generator:
        """pop + wait on the returned qtoken."""
        token = self.pop(qd)
        return (yield from self.wait(token))

    # ----------------------------------------- queue pipelines (control path)
    def queue(self, capacity: Optional[int] = None) -> int:
        """An in-memory Demikernel queue (the ``queue()`` syscall)."""
        self.counters.count(names.CTRL_QUEUE)
        return self._install(MemoryQueue, capacity).qd

    def merge(self, qd1: int, qd2: int) -> int:
        """A queue combining two queues (section 4.3 ``merge``)."""
        from .pipeline import MergedQueue
        self.counters.count(names.CTRL_MERGE)
        return self._install(MergedQueue, self._lookup(qd1), self._lookup(qd2)).qd

    def filter(self, qd: int, predicate: Callable[[Sga], bool]) -> int:
        """A queue passing only elements where *predicate* holds."""
        from .pipeline import FilteredQueue
        self.counters.count(names.CTRL_FILTER)
        return self._install(FilteredQueue, self._lookup(qd), predicate).qd

    def sort(self, qd: int, key: Callable[[Sga], object]) -> int:
        """A queue reordering elements by priority *key* (lowest first)."""
        from .pipeline import SortedQueue
        self.counters.count(names.CTRL_SORT)
        return self._install(SortedQueue, self._lookup(qd), key).qd

    def map(self, qd: int, fn: Callable[[Sga], Sga]) -> int:
        """A queue applying *fn* to every element."""
        from .pipeline import MappedQueue
        self.counters.count(names.CTRL_MAP)
        return self._install(MappedQueue, self._lookup(qd), fn).qd

    def qconnect(self, qd_in: int, qd_out: int):
        """Plumb qd_in's elements into qd_out; returns a stoppable handle."""
        from .pipeline import QueueConnector
        self.counters.count(names.CTRL_QCONNECT)
        return QueueConnector(self, self._lookup(qd_in), self._lookup(qd_out))

    def close(self, qd: int) -> Generator:
        """Close a queue: outstanding pops complete with error='closed'.

        Ordering matters: the queue lets go of its device, then retires
        its outstanding qtokens (each pending pop completes with the
        ``'closed'`` error) *before* the descriptor leaves the qd table,
        and a second close of the same qd is a charged no-op - so a
        waiter that wakes to the 'closed' result can run its own
        ``close(qd)`` cleanup without tripping over a descriptor that
        vanished under it.
        """
        queue = self._queues.get(qd)
        if queue is None:
            if not 1 <= qd < self._next_qd:
                raise DemiError("bad queue descriptor %d" % qd)
            # Idempotent re-close (e.g. a pop waiter's cleanup racing the
            # original close): charge the syscall, change nothing.
            yield self.core.busy(self.costs.syscall_ns)
            self.counters.count(names.CTRL_CLOSE_NOOP)
            return
        yield from queue.shutdown()
        yield self.core.busy(self.costs.syscall_ns)  # control path may cross
        queue.close()
        self._queues.pop(qd, None)
        self.counters.count(names.CTRL_CLOSE)
        queue.reap()

    # ------------------- device control path: the queue kind knows what to do
    def bind(self, qd: int, *args, **kw) -> Generator:
        return (yield from self._lookup(qd).bind(*args, **kw))

    def listen(self, qd: int, *args, **kw) -> Generator:
        return (yield from self._lookup(qd).listen(*args, **kw))

    def accept(self, qd: int) -> Generator:
        """Wait for a connection; returns the new connected queue's qd."""
        return (yield from self._lookup(qd).accept())

    def connect(self, qd: int, *args, **kw) -> Generator:
        return (yield from self._lookup(qd).connect(*args, **kw))

    def push_to(self, qd: int, sga: Sga, remote) -> QToken:
        """Datagram extension: push one element to an explicit address."""
        return self._push(qd, sga, remote)

    # -------------- which queue class to install: each libOS's own device calls
    def socket(self, *args, **kw) -> Generator:
        raise DemiError("%s does not implement socket()" % self.name)
        yield  # pragma: no cover

    def open(self, path: str) -> Generator:
        raise DemiError("%s does not implement open()" % self.name)
        yield  # pragma: no cover

    def creat(self, path: str) -> Generator:
        raise DemiError("%s does not implement creat()" % self.name)
        yield  # pragma: no cover

    # ---------------------------------------------- crash teardown (reclaim)
    def crash_background_procs(self) -> list:
        """Kernel-reclaim hook: background sim processes serving this
        libOS as a whole (poll-mode drivers...) that must stop when the
        owning process dies.  Per-queue pumps belong to
        :meth:`DemiQueue.crash_abort <repro.core.queue.DemiQueue.crash_abort>`
        instead."""
        return []

    # ------------------------------------------------------- memory convenience
    def sga_alloc(self, data: bytes) -> Sga:
        """Allocate a registered buffer holding *data* (zero-copy ready)."""
        return Sga.from_bytes(self.mm, data)

    def sga_free(self, sga: Sga) -> None:
        """Free an sga: its own buffers are freed (free-protection applies
        automatically) and a lent segment is given back to its lender.  A
        popped element may be lent memory - a Catfish pop is a slice of
        the log's read span - so free every one; a second free of a lent
        segment raises ``BufferError``."""
        for seg in sga.segments:
            if seg.lent:
                self.mm.give_back(seg)
            elif not seg.buf.freed:
                self.mm.free(seg.buf)
