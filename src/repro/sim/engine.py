"""Discrete-event simulation engine.

This is the foundation every other subsystem runs on.  Time is an integer
number of nanoseconds; all hardware latencies and CPU costs in the
repository are expressed in this unit.

The engine implements a small, simpy-like coroutine model built on plain
generators:

* A :class:`Simulator` owns the event heap and the clock.
* A *process* is a generator driven by the engine.  It advances by
  ``yield``-ing :class:`Completion` objects (or :class:`Timeout`, which is
  a completion triggered by the clock).  When the completion fires, the
  process resumes and receives the completion's value as the result of the
  ``yield`` expression.
* Sub-routines compose with ``yield from`` and return values with
  ``return``, so simulated call stacks read like ordinary Python.

Three ways to run something later, one per need: :meth:`Simulator.call_in`
for a one-shot nobody withdraws, :meth:`Timeout.cancel` for a deadline a
*process* waits on, :class:`Timer` for anything re-armed or stopped.

Example::

    sim = Simulator()

    def pinger():
        yield sim.timeout(100)
        return sim.now

    proc = sim.spawn(pinger())
    sim.run()
    assert proc.value == 100
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Completion",
    "Timeout",
    "Timer",
    "Process",
    "SimulationError",
    "Interrupt",
    "any_of",
    "all_of",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Delivered into a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Completion:
    """A one-shot event that processes can wait on.

    A completion starts *pending*; it may be triggered exactly once with a
    value (or failed with an exception).  Any number of processes and
    callbacks may subscribe; they all run when it fires.
    """

    __slots__ = ("sim", "_value", "_exc", "_done", "_callbacks", "label")

    def __init__(self, sim: "Simulator", label: Any = ""):
        self.sim = sim
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._done = False
        self._callbacks: List[Callable[["Completion"], None]] = []
        #: text, or ``(format, *args)`` from a hot path: only error
        #: messages and ``repr`` ever read it, so it is formatted there
        self.label = label

    def _name(self) -> str:
        label = self.label
        return label if isinstance(label, str) else label[0] % label[1:]

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("completion %r not yet triggered" % self._name())
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- firing --------------------------------------------------------
    def trigger(self, value: Any = None) -> "Completion":
        """Fire the completion now, delivering *value* to all waiters."""
        if self._done:
            raise SimulationError("completion %r triggered twice" % self._name())
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exc: BaseException) -> "Completion":
        """Fire the completion with an exception instead of a value."""
        if self._done:
            raise SimulationError("completion %r triggered twice" % self._name())
        self._done = True
        self._exc = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(self)
        return self

    # -- subscription ----------------------------------------------------
    def subscribe(self, callback: Callable[["Completion"], None]) -> None:
        """Run *callback(completion)* when this fires (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return "<Completion %s %s>" % (self._name() or hex(id(self)), state)


#: the arguments of a :meth:`Process._resume` that has no outcome to
#: deliver - a first step, or an interrupt's delivery: one completion
#: that fired with neither a value nor an exception
_NOTHING_HAPPENED = (Completion(None, "nothing").trigger(),)


class Timeout(Completion):
    """A completion triggered by the clock after a fixed delay."""

    __slots__ = ("delay", "_entry")

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout %r" % delay)
        if delay.__class__ is not int:
            delay = int(delay)
        # Completion.__init__, inlined: most completions are timeouts
        self.sim = sim
        self._value = self._exc = None
        self._done = False
        self._callbacks = []
        self.label = ""
        self.delay = delay
        self._entry = sim._schedule_at(sim._now + delay, self.trigger,
                                       (value,))

    def _name(self) -> str:
        return "timeout(%d)" % self.delay

    def cancel(self) -> None:
        """Withdraw the pending trigger; no-op once fired.

        A wait that wins before its deadline must cancel its timer, or
        the dead entry sits on the heap until the deadline passes - at
        millions of timed waits that is unbounded heap growth.
        """
        if self._done:
            return
        self._done = True  # never fires; waiters were never going to win
        self._callbacks = []
        self.sim._cancel_scheduled(self._entry)


class Timer:
    """A re-armable one-shot: ``fn()`` runs once, at the deadline of the
    latest :meth:`arm`, unless :meth:`stop` came first.

    It is for a deadline that moves far more often than it expires - a
    retransmission timer every ACK restarts, a delayed ACK every reply
    pays.  Moving the deadline later, or stopping, touches no heap entry:
    the one pending event fires, finds the deadline moved or gone, and
    sleeps on to the current one or ends.  Only a deadline *earlier* than
    the pending event replaces it.  So a timer owns at most one live heap
    entry, at or before its deadline while armed, and none once it is
    stopped and that entry has fired.
    """

    __slots__ = ("sim", "fn", "deadline", "_entry")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        #: absolute time ``fn`` runs at; None while not armed
        self.deadline: Optional[int] = None
        self._entry: Optional[List[Any]] = None  # the pending heap entry

    @property
    def armed(self) -> bool:
        return self.deadline is not None

    def arm(self, delay_ns: int) -> None:
        """(Re)start: ``fn`` runs *delay_ns* from now and at no other time."""
        sim = self.sim
        self.deadline = deadline = sim._now + delay_ns
        entry = self._entry
        if entry is not None:
            if entry[0] <= deadline:
                return  # the pending event will sleep on to it
            sim._cancel_scheduled(entry)
        self._entry = sim._schedule_at(deadline, self._fire)

    def stop(self) -> None:
        """Disarm: the pending event, if any, ends when it fires."""
        self.deadline = None

    def _fire(self) -> None:
        deadline = self.deadline
        if deadline is None:
            self._entry = None
        elif deadline > self.sim._now:
            self._entry = self.sim._schedule_at(deadline, self._fire)
        else:
            self._entry = self.deadline = None
            self.fn()


class Process(Completion):
    """A running coroutine; also a completion that fires on termination.

    The process's ``return`` value becomes the completion value, so other
    processes can ``yield proc`` to join it.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_interrupts", "alive", "_wake")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, label="process(%s)" % (name or "anon"))
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self._waiting_on: Optional[Completion] = None
        self._interrupts: List[Interrupt] = []
        self.alive = True
        #: ``_resume``, bound once: what every completion this process
        #: parks on calls back (dropped at the end, it is a cycle)
        self._wake: Optional[Callable[[Completion], None]] = self._resume
        # First step happens through the event loop so that spawn() inside
        # a running process doesn't reentrantly execute the child.
        sim._schedule_at(sim._now, self._wake, _NOTHING_HAPPENED)

    #: consecutive already-triggered yields before declaring a livelock
    #: (a process spinning on instantly-ready completions never lets the
    #: clock advance; fail loudly instead of hanging the simulation)
    MAX_SYNC_CONTINUATIONS = 100_000

    # -- driving ---------------------------------------------------------
    def _resume(self, completion: Completion) -> None:
        """Run the generator on from *completion*'s outcome until it parks
        on a pending completion or ends: the only way into it."""
        if not self.alive:
            return
        self._waiting_on = None
        value, exc = completion._value, completion._exc
        sim = self.sim
        sim._active = self
        sync_spins = 0
        try:
            while True:
                if self._interrupts and exc is None:
                    exc = self._interrupts.pop(0)
                if exc is not None:
                    target = self.gen.throw(exc)
                else:
                    target = self.gen.send(value)
                exc = None
                try:
                    done = target._done
                except AttributeError:
                    raise SimulationError(
                        "process %s yielded %r; processes must yield "
                        "Completion objects" % (self.name, target)
                    ) from None
                if done:
                    # Already done: continue synchronously with its value.
                    sync_spins += 1
                    if sync_spins > self.MAX_SYNC_CONTINUATIONS:
                        raise SimulationError(
                            "process %s looks livelocked: %d consecutive "
                            "yields of already-triggered completions "
                            "without simulated time advancing"
                            % (self.name, sync_spins))
                    if target._exc is not None:
                        value, exc = None, target._exc
                        continue
                    value = target._value
                    continue
                self._waiting_on = target
                target._callbacks.append(self._wake)
                return
        except StopIteration as stop:
            self.alive = False
            self._wake = None
            self.trigger(stop.value)
        except BaseException as err:  # propagate failures to joiners
            self.alive = False
            self._wake = None
            if not self._callbacks and not isinstance(err, Interrupt):
                # Nobody is joining this process: surface the crash.
                self.fail(err)
                raise
            self.fail(err)
        finally:
            sim._active = None

    # -- control ---------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.alive:
            return
        self._interrupts.append(Interrupt(cause))
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            # Detach from whatever it was waiting on and resume with the
            # interrupt at the next event-loop turn.
            try:
                waiting._callbacks.remove(self._wake)
            except ValueError:
                pass
            self.sim._schedule_at(self.sim._now, self._wake,
                                  _NOTHING_HAPPENED)


class _MultiWait(Completion):
    """Shared machinery for :func:`any_of` / :func:`all_of`.

    One bound callback is planted on every event.  When the wait
    resolves ("any" mode wins, or either mode fails), it is detached
    from the events still pending.  Without that, every ``wait_any``
    leaves a stale callback on each losing completion - on a long-lived
    connection queue that is waited thousands of times, the callback
    list grows without bound.
    """

    __slots__ = ("remaining", "mode", "_events", "_cb")

    def __init__(self, sim: "Simulator", events: List[Completion], mode: str):
        Completion.__init__(self, sim)
        self.mode = mode
        self.remaining = len(events)
        self._events = events
        if not events:
            self.trigger([])
            return
        cb = self._cb = self._on_event
        for ev in events:
            ev.subscribe(cb)
            if self._done:
                # An already-triggered event resolved the wait mid-
                # construction ("any" win or a failure); never subscribe
                # to the rest, they would leak.
                break

    def _on_event(self, ev: Completion) -> None:
        if self._done:
            return
        # Detach before triggering: dispatch resumes the waiting
        # process synchronously, and it must not observe our stale
        # callbacks still planted on the losing events.
        if ev._exc is not None:
            self._detach()
            self.fail(ev._exc)
        elif self.mode == "any":
            index = self._events.index(ev)
            self._detach()
            self.trigger((index, ev._value))
        else:
            self.remaining -= 1
            if self.remaining == 0:
                events, self._events, self._cb = self._events, [], None
                self.trigger([each._value for each in events])

    def _name(self) -> str:
        return "%s(%d)" % (self.mode, len(self._events))

    def _detach(self) -> None:
        """Remove our callback from the events that did not fire (and
        drop it: it holds us, a cycle)."""
        cb, self._cb = self._cb, None
        for ev in self._events:
            if not ev._done:
                try:
                    ev._callbacks.remove(cb)
                except ValueError:
                    pass
        self._events = []


def any_of(sim: "Simulator", events: Iterable[Completion]) -> Completion:
    """Completion firing with ``(index, value)`` of the first event done."""
    return _MultiWait(sim, list(events), "any")


def all_of(sim: "Simulator", events: Iterable[Completion]) -> Completion:
    """Completion firing with the list of all values once every event fires."""
    return _MultiWait(sim, list(events), "all")


class Simulator:
    """The event loop: a heap of ``(time, seq, fn, args)`` entries."""

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._now = 0
        self._seq = 0
        self._tombstones = 0
        self._active: Optional[Process] = None

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def _schedule_at(self, when: int, fn: Callable,
                     args: Tuple[Any, ...] = ()) -> List[Any]:
        """Schedule ``fn(*args)`` at *when*; returns the heap entry."""
        if when < self._now:
            raise SimulationError("cannot schedule into the past")
        self._seq += 1
        # Entries are lists so a cancellation can tombstone one in place
        # (fn=None) without an O(n) heap removal.  The unique seq in slot
        # 1 means heap comparisons never reach the (unorderable) fn slot.
        entry = [when, self._seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def _cancel_scheduled(self, entry: List[Any]) -> None:
        """Tombstone a heap entry returned by :meth:`_schedule_at`."""
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._tombstones += 1
        # Compact when tombstones dominate, so a workload that cancels
        # nearly every timer (a server whose waits always win before the
        # deadline) keeps the heap at O(live entries).
        if self._tombstones > 64 and self._tombstones * 2 > len(self._heap):
            self._heap = [e for e in self._heap if e[2] is not None]
            heapq.heapify(self._heap)
            self._tombstones = 0

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* ns of simulated time."""
        if delay.__class__ is not int:
            delay = int(delay)
        self._schedule_at(self._now + delay, fn, args)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """A completion that fires *delay* ns from now."""
        return Timeout(self, delay, value)

    def completion(self, label: str = "") -> Completion:
        """A fresh untriggered completion."""
        return Completion(self, label)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start *gen* as a new process; returns its join handle."""
        return Process(self, gen, name)

    # -- running ------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Drain the event heap; optionally stop once the clock passes *until*.

        Returns the simulated time at which the run stopped.
        """
        while self._heap:
            heap = self._heap  # compaction may replace the list
            when, _seq, fn, args = heap[0]
            if fn is None:  # tombstoned by a cancellation
                heapq.heappop(heap)
                self._tombstones -= 1
                continue
            if until is not None and when > until:
                self._now = until
                return self._now
            heapq.heappop(heap)
            self._now = when
            fn(*args)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_complete(self, proc: Process, limit: int = 10**15) -> Any:
        """Run until *proc* finishes (or the time limit trips) and return
        its value."""
        heappop = heapq.heappop
        while self._heap and not proc._done:
            heap = self._heap  # compaction may replace the list
            entry = heappop(heap)
            when, _seq, fn, args = entry
            if fn is None:  # tombstoned by a cancellation
                self._tombstones -= 1
                continue
            if when > limit:
                heapq.heappush(heap, entry)
                break
            self._now = when
            fn(*args)
        if not proc._done:
            raise SimulationError(
                "process %s did not finish within %d ns" % (proc.name, limit)
            )
        return proc.value

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else None
