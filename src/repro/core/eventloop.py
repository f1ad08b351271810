"""A libevent-style event loop over ``wait_any_n`` (section 4.4).

The paper: "In the future, we plan to implement a libevent-based
Demikernel OS, which would enable applications, like memcached, to
achieve the benefits of kernel-bypass transparently."  This module is
that layer, and the serve loop of every Demikernel server in the repo:
applications register callbacks against queues, listening sockets and
timers; one dispatcher multiplexes every armed operation through a
single ``wait_any_n`` - so callback-structured legacy code ports without
knowing about qtokens at all.  A listening socket is one more queue: its
pop completes once per accepted connection, with the new qd, so a
connection is an ordinary completion in the same wait set.

The dispatcher is *wake-one*: the wait carries no timeout unless a timer
is registered, one crossing drains every completion that is ready at the
wake-up instant, and each event is re-armed only after its callback
returns.  Every wake-up therefore carries real work, which the loop
makes measurable rather than assumed: it counts on its libOS's scope, and
``shard_wasted_wakeups`` (woke with nothing to do) and
``shard_cross_wakeups`` (woke for a queue the event does not own) must
both end a run at zero.

Callbacks may be plain callables (run inline) or generator functions
(sim-coroutines, driven to completion before the next dispatch), mirroring
libevent's synchronous callback model.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Generator, List, Optional

from .api import LibOS
from .types import OP_POP, DemiError, DemiTimeout, QResult, QToken

__all__ = ["DemiEventLoop"]


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
                 token: QToken):
        self.handle = handle
        self.qd = qd
        self.callback = callback
        #: the armed pop; None once a wait has taken its result
        self.token: Optional[QToken] = token


class _TimerEvent:
    def __init__(self, handle: EventHandle, delay_ns: int, callback,
                 fire_at: int):
        self.handle = handle
        self.delay_ns = delay_ns
        self.callback = callback
        self.fire_at = fire_at


class DemiEventLoop:
    """Callback dispatch: one wait_any_n over every armed queue operation.

    **Registration rule.**  Call ``add_*`` before :meth:`run` starts or
    from inside a callback, never from another process while the
    dispatcher is parked: the wait set is rebuilt only when the
    dispatcher wakes, so an event slipped in from outside would sit
    un-armed until some unrelated completion arrived.  Connections need
    no exception: a listening queue's pop completes with each new qd, so
    :meth:`add_accept_event` is a pop event like any other and its
    ``on_conn`` registers the connection from inside a callback.
    """

    def __init__(self, libos: LibOS):
        self.libos = libos
        self.sim = libos.sim
        self._events: List[_PopEvent] = []    # in wait-set order
        self._timers: List[_TimerEvent] = []
        self._stopped = False
        #: completed by :meth:`stop`, so a parked dispatcher wakes for it
        self._stop_token: Optional[QToken] = None
        self.dispatches = 0
        self.timer_fires = 0

    # -- registration ---------------------------------------------------------
    def add_pop_event(self, qd: int,
                      callback: Callable[[QResult], object]) -> EventHandle:
        """Run ``callback(result)`` whenever *qd* yields an element.

        The event re-arms after each callback returns (libevent's
        EV_PERSIST) until :meth:`remove`.  The callback receives the
        QResult - data included, no second call, exactly one wake-up.
        An error result (EOF, reset, closed) is delivered once and
        retires the event.
        """
        handle = EventHandle("pop", qd)
        self._events.append(_PopEvent(handle, qd, callback,
                                      self.libos.pop(qd)))
        return handle

    def add_accept_event(self, listen_qd: int,
                         on_conn: Callable[[int], object]) -> EventHandle:
        """Run ``on_conn(qd)`` for every connection *listen_qd* accepts: a
        listening queue's pop completes with the new qd as its value."""
        def on_accept(result: QResult):
            if result.error is None:
                return on_conn(result.value)

        return self.add_pop_event(listen_qd, on_accept)

    def add_timer(self, delay_ns: int,
                  callback: Callable[[], object]) -> EventHandle:
        """Run ``callback()`` every *delay_ns* until :meth:`remove`."""
        if delay_ns <= 0:
            raise ValueError("timer delay must be positive")
        handle = EventHandle("timer", delay_ns)
        self._timers.append(_TimerEvent(handle, delay_ns, callback,
                                        self.sim.now + delay_ns))
        return handle

    def remove(self, handle: EventHandle) -> None:
        """Deactivate an event; a pop in flight completes unserved."""
        handle.active = False
        self._timers = [t for t in self._timers if t.handle is not handle]

    def stop(self) -> None:
        """End :meth:`run` after the batch in service, leaving nothing armed.

        A parked dispatcher wakes because its stop token completes - a
        real completion, not a timeout or an interrupt - so a request
        being served when ``stop()`` is called is always finished.  Then
        :meth:`run` cancels every pop still pending, the accept pop too.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._stop_token is not None:
            self.libos.qtokens.complete(self._stop_token, QResult(OP_POP, -1))

    # -- dispatch ---------------------------------------------------------------
    def _next_timer(self) -> Optional[_TimerEvent]:
        return min(self._timers, key=lambda t: t.fire_at, default=None)

    def _fire(self, timer: _TimerEvent) -> Generator:
        self.timer_fires += 1
        ran = timer.callback()
        if ran.__class__ is GeneratorType:
            yield from ran
        timer.fire_at = self.sim.now + timer.delay_ns

    def _disarm(self) -> Generator:
        """Cancel each pop still pending; retire each completed one."""
        libos = self.libos
        tokens = [e.token for e in self._events if e.token is not None]
        if self._stop_token is not None:
            tokens.append(self._stop_token)
        for token in tokens:
            try:
                done = libos.qtokens.completion_of(token)
            except DemiError:
                continue  # a crash teardown reaped it first
            if done.triggered:
                yield from libos.qtokens.wait(token)
            else:
                libos.cancel(token)

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
                                     if e.token is not None]
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
                    libos.counters.shard_wasted_wakeups += 1
                continue
            libos.counters.shard_wakeups += 1
            libos.counters.shard_batch_completions += len(ready)
            # ``ready`` is sorted by index and events registered by a
            # callback append past every index in the batch.
            for index, result in ready:
                if index == armed:  # the loop condition ends us
                    self._stop_token = None
                    continue
                event = events[index]
                event.token = None  # the wait retired it
                if not event.handle.active:
                    continue  # removed while its pop was in flight
                if result.qd != event.qd:  # pragma: no cover - the claim
                    libos.counters.shard_cross_wakeups += 1
                self.dispatches += 1
                ran = event.callback(result)
                if ran.__class__ is GeneratorType:
                    yield from ran
                if (result.error is None and event.handle.active
                        and not self._stopped):
                    event.token = libos.pop(event.qd)
                else:
                    event.handle.active = False
        yield from self._disarm()
        return self.dispatches
