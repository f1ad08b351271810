"""A libevent-style event loop over ``wait_any_n`` (section 4.4).

The paper: "In the future, we plan to implement a libevent-based
Demikernel OS, which would enable applications, like memcached, to
achieve the benefits of kernel-bypass transparently."  This module is
that layer, and the only serve loop for stream connections in the repo:
applications register callbacks against queues, listening sockets and
timers; one dispatcher multiplexes every armed operation through a
single ``wait_any_n`` - so callback-structured legacy code ports without
knowing about qtokens at all.

The dispatcher is *wake-one*: the wait carries no timeout unless a timer
is registered, one crossing drains every completion that is ready at the
wake-up instant, and each event is re-armed only after its callback
returns.  Every wake-up therefore carries real work, which the loop
makes measurable rather than assumed - ``wasted_wakeups`` (woke with
nothing to do) and ``cross_wakeups`` (woke for a queue the event does
not own) must both end a run at zero.

Callbacks may be plain callables (run inline) or generator functions
(sim-coroutines, driven to completion before the next dispatch), mirroring
libevent's synchronous callback model.
"""

from __future__ import annotations

import inspect
import struct
from typing import Callable, Generator, List, Optional

from ..telemetry import names
from .api import LibOS
from .types import OP_POP, DemiTimeout, QResult, QToken

__all__ = ["DemiEventLoop", "EventHandle"]

_QD = struct.Struct("!I")   # an accepted qd travelling the accept channel


class EventHandle:
    """Returned by ``add_*``; pass to :meth:`DemiEventLoop.remove`."""

    def __init__(self, kind: str, target):
        self.kind = kind          # "pop" | "timer"
        self.target = target      # qd or delay_ns
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover
        return "<EventHandle %s(%r)%s>" % (
            self.kind, self.target,
            "" if self.active else " removed")


class _PopEvent:
    def __init__(self, handle: EventHandle, qd: int, callback,
                 persistent: bool, token: QToken):
        self.handle = handle
        self.qd = qd
        self.callback = callback
        self.persistent = persistent
        self.token = token


class _TimerEvent:
    def __init__(self, handle: EventHandle, delay_ns: int, callback,
                 periodic: bool, fire_at: int):
        self.handle = handle
        self.delay_ns = delay_ns
        self.callback = callback
        self.periodic = periodic
        self.fire_at = fire_at


class DemiEventLoop:
    """Callback dispatch: one wait_any_n over every armed queue operation.

    **Registration rule.**  Call ``add_*`` before :meth:`run` starts or
    from inside a callback, never from another process while the
    dispatcher is parked: the wait set is rebuilt only when the
    dispatcher wakes, so an event slipped in from outside would sit
    un-armed until some unrelated completion arrived.  New connections
    are the one thing that must arrive from outside; they come through
    :meth:`add_accept_event`, which turns each accept into a completion
    the dispatcher is already waiting on.
    """

    def __init__(self, libos: LibOS):
        self.libos = libos
        self.sim = libos.sim
        self._events: List[_PopEvent] = []    # in wait-set order
        self._timers: List[_TimerEvent] = []
        self._acceptors: list = []            # acceptor processes we own
        self._stopped = False
        #: completed by :meth:`stop`, so a parked dispatcher wakes for it
        self._stop_token: Optional[QToken] = None
        self.dispatches = 0
        self.timer_fires = 0
        self.wakeups = 0
        self.wasted_wakeups = 0
        self.cross_wakeups = 0

    # -- registration ---------------------------------------------------------
    def add_pop_event(self, qd: int, callback: Callable[[QResult], object],
                      persistent: bool = True) -> EventHandle:
        """Run ``callback(result)`` whenever *qd* yields an element.

        Persistent events re-arm after each callback returns
        (EV_PERSIST); one-shot events fire once.  The callback receives
        the QResult - data included, no second call, exactly one
        wake-up.  An error result (EOF, reset, closed) is delivered once
        and retires the event.
        """
        handle = EventHandle("pop", qd)
        self._events.append(_PopEvent(handle, qd, callback, persistent,
                                      self.libos.pop(qd)))
        return handle

    def add_accept_event(self, listen_qd: int,
                         on_conn: Callable[[int], object]) -> EventHandle:
        """Run ``on_conn(qd)`` for every connection *listen_qd* accepts.

        ``accept`` blocks, so it runs in an acceptor process the loop
        owns; the acceptor forwards each new qd through an in-memory
        Demikernel queue, which makes "a connection arrived" one more
        pop in the dispatcher's uniform wait set.
        """
        libos = self.libos
        chan = libos.queue()

        def acceptor() -> Generator:
            while True:
                qd = yield from libos.accept(listen_qd)
                yield from libos.blocking_push(
                    chan, libos.sga_alloc(_QD.pack(qd)))

        self._acceptors.append(self.sim.spawn(
            acceptor(), name="%s.acceptor" % libos.name))

        def on_handoff(result: QResult):
            if result.error is None:
                return on_conn(_QD.unpack(result.sga.tobytes())[0])

        return self.add_pop_event(chan, on_handoff)

    def add_timer(self, delay_ns: int, callback: Callable[[], object],
                  periodic: bool = False) -> EventHandle:
        """Run ``callback()`` after *delay_ns* (repeatedly if periodic)."""
        if delay_ns <= 0:
            raise ValueError("timer delay must be positive")
        handle = EventHandle("timer", delay_ns)
        self._timers.append(_TimerEvent(handle, delay_ns, callback,
                                        periodic, self.sim.now + delay_ns))
        return handle

    def remove(self, handle: EventHandle) -> None:
        """Deactivate an event; its pending operation is abandoned."""
        handle.active = False
        self._timers = [t for t in self._timers if t.handle is not handle]

    def stop(self) -> None:
        """End :meth:`run` after the batch in service, and the acceptors.

        A parked dispatcher wakes because its stop token completes - a
        real completion, not a timeout or an interrupt - so a request
        being served when ``stop()`` is called is always finished.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._stop_token is not None:
            self.libos.qtokens.complete(self._stop_token, QResult(OP_POP, -1))
        for proc in self._acceptors:
            proc.interrupt("event loop stopped")

    # -- dispatch ---------------------------------------------------------------
    def _run_callback(self, callback, *args) -> Generator:
        result = callback(*args)
        if inspect.isgenerator(result):
            yield from result

    def _next_timer(self) -> Optional[_TimerEvent]:
        return min(self._timers, key=lambda t: t.fire_at, default=None)

    def _fire(self, timer: _TimerEvent) -> Generator:
        self.timer_fires += 1
        yield from self._run_callback(timer.callback)
        if timer.periodic and timer.handle.active:
            timer.fire_at = self.sim.now + timer.delay_ns
        else:
            self.remove(timer.handle)

    def run(self) -> Generator:
        """The dispatcher body - spawn it as a process."""
        libos = self.libos
        if not self._stopped:
            self._stop_token, _done = libos.qtokens.create()
        while not self._stopped:
            timer = self._next_timer()
            if timer is not None and timer.fire_at <= self.sim.now:
                yield from self._fire(timer)
                continue
            # Entries retired by the last batch leave the wait set here,
            # never mid-batch: the indexes a batch reports stay stable.
            events = self._events = [e for e in self._events
                                     if e.handle.active]
            armed = len(events)
            tokens = [e.token for e in events] + [self._stop_token]
            try:
                # Batch drain: one crossing returns *every* completion
                # ready at the wake-up instant, so a loaded server
                # services N requests per wake-up.
                ready = yield from libos.wait_any_n(
                    tokens, timeout_ns=(None if timer is None
                                        else timer.fire_at - self.sim.now))
            except DemiTimeout:
                if not timer.handle.active:
                    # The timer we armed for was removed while we slept.
                    self.wasted_wakeups += 1
                    libos.count(names.SHARD_WASTED_WAKEUPS)
                continue
            self.wakeups += 1
            libos.count(names.SHARD_WAKEUPS)
            libos.count(names.SHARD_BATCH_COMPLETIONS, len(ready))
            # ``ready`` is sorted by index and events registered by a
            # callback append past every index in the batch.
            for index, result in ready:
                if index == armed:
                    continue  # the stop token; the loop condition ends us
                event = events[index]
                if not event.handle.active:
                    continue  # removed while its pop was in flight
                if result.qd != event.qd:  # pragma: no cover - the claim
                    self.cross_wakeups += 1
                    libos.count(names.SHARD_CROSS_WAKEUPS)
                self.dispatches += 1
                yield from self._run_callback(event.callback, result)
                if (event.persistent and result.error is None
                        and event.handle.active):
                    event.token = libos.pop(event.qd)
                else:
                    event.handle.active = False
        return self.dispatches
