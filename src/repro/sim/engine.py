"""Discrete-event simulation engine.

This is the foundation every other subsystem runs on.  Time is an integer
number of nanoseconds; all hardware latencies and CPU costs in the
repository are expressed in this unit.

The engine implements a small, simpy-like coroutine model built on plain
generators:

* A :class:`Simulator` owns the event heap and the clock.
* A *process* is a generator driven by the engine.  It advances by
  ``yield``-ing one of three things: a :class:`Completion` (it resumes
  when the completion fires, and the ``yield`` expression evaluates to
  the completion's value), a :class:`Sleep` (what ``sim.timeout(d)`` and
  a CPU charge return: it resumes at that instant, with ``None``,
  straight from its own heap entry - no completion is built or fired)
  or an :class:`AnyWait`, which parks it on several completions at once.
* Sub-routines compose with ``yield from`` and return values with
  ``return``, so simulated call stacks read like ordinary Python.

Four ways to run something later, one per need: :meth:`Simulator.call_in`
for a one-shot nobody withdraws, a yielded :class:`Sleep` for a process
that only waits out an instant, a yielded :class:`AnyWait` with a
deadline for a process that waits on events until a time (what wins
withdraws the rest; an interrupt withdraws either), :class:`Timer` for
anything re-armed or stopped.

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
from typing import Any, Callable, Generator, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Completion",
    "Sleep",
    "AnyWait",
    "Timer",
    "Process",
    "Interrupt",
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
    value (or failed with an exception).  Any number of processes may
    wait on it; they all resume when it fires.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return "<Completion %s %s>" % (self._name() or hex(id(self)), state)


#: the completion a :meth:`Process._resume` is given when it has no
#: outcome to deliver - a first step, an interrupt's delivery, the end of
#: a sleep or an :class:`AnyWait`'s deadline: it fired with neither a
#: value nor an exception
_NOTHING = Completion(None, "nothing").trigger()
_NOTHING_HAPPENED = (_NOTHING,)


class Sleep:
    """What :meth:`Simulator.timeout` and :meth:`repro.sim.cpu.Core.busy`
    return.  Yielded in the instant it was made, it resumes the process at
    ``until`` with ``None`` from the process's own heap entry, ordered
    among that instant's entries at the yield.  It is no completion:
    nothing can subscribe to it or race it (a deadline that races events
    is an :class:`AnyWait`'s)."""

    __slots__ = ("until",)

    def __init__(self, until: int):
        self.until = until


class AnyWait:
    """Yielded by a process: resume it with ``(index, value)`` of the
    first of *events* done, or with that event's exception, or - if
    *until* is not None and comes first - with ``(len(events), None)`` at
    that instant.

    An event already done wins at the yield (the first in order).
    Otherwise the process plants its one bound callback on each event and,
    for a deadline, its own heap entry at *until*; whichever fires first
    withdraws the rest, and so does an interrupt.  Nothing else is built:
    no completion stands for the wait.
    """

    __slots__ = ("events", "until", "entry")

    def __init__(self, events: List[Completion], until: Optional[int]):
        self.events = events
        self.until = until
        #: the deadline's heap entry while parked with one, else None
        self.entry: Optional[List[Any]] = None


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
        #: the completion it is parked on, or the heap entry of its sleep
        self._waiting_on: Any = None
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
        or ends: the only way into it.  *completion* is what it parked on,
        an event of its :class:`AnyWait`, or :data:`_NOTHING`."""
        if not self.alive:
            return
        waiting = self._waiting_on
        if waiting is completion:
            value, exc = completion._value, completion._exc
        elif waiting.__class__ is AnyWait:
            if completion is _NOTHING:  # the deadline: its entry is spent
                waiting.entry = None
                value, exc = (len(waiting.events), None), None
            else:
                try:
                    index = waiting.events.index(completion)
                except ValueError:
                    return  # an event of a wait it has already left
                exc = completion._exc
                value = None if exc is not None else (index,
                                                      completion._value)
            self._leave(waiting)
        elif completion is not _NOTHING:
            # an event of a wait it left, firing in the cascade of the
            # one that won it
            return
        else:
            value = exc = None
        self._waiting_on = None
        sim = self.sim
        outer, sim._active = sim._active, self
        sync_spins = 0
        try:
            while True:
                if self._interrupts and exc is None:
                    exc = self._interrupts.pop(0)
                if exc is not None:
                    target = self.gen.throw(exc)
                else:
                    target = self.gen.send(value)
                cls = target.__class__
                if cls is Sleep:
                    # the heap entry is what an interrupt withdraws
                    self._waiting_on = sim._schedule_at(
                        target.until, self._wake, _NOTHING_HAPPENED)
                    return
                if cls is AnyWait:
                    index = 0
                    for event in target.events:
                        if event._done:
                            break
                        index += 1
                    else:
                        wake = self._wake
                        for event in target.events:
                            event._callbacks.append(wake)
                        if target.until is not None:
                            target.entry = sim._schedule_at(
                                target.until, wake, _NOTHING_HAPPENED)
                        self._waiting_on = target
                        return
                    exc = event._exc
                    value = None if exc is not None else (index, event._value)
                else:
                    try:
                        done = target._done
                    except AttributeError:
                        raise SimulationError(
                            "process %s yielded %r; processes must yield "
                            "Completion, Sleep or AnyWait objects"
                            % (self.name, target)) from None
                    if not done:
                        self._waiting_on = target
                        target._callbacks.append(self._wake)
                        return
                    value, exc = target._value, target._exc
                # Already done: continue synchronously with its outcome.
                sync_spins += 1
                if sync_spins > self.MAX_SYNC_CONTINUATIONS:
                    raise SimulationError(
                        "process %s looks livelocked: %d consecutive "
                        "yields of already-triggered completions "
                        "without simulated time advancing"
                        % (self.name, sync_spins))
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
            sim._active = outer

    def _leave(self, wait: AnyWait) -> None:
        """Withdraw from *wait*: the callback from every event still
        pending, and the deadline's entry from the heap."""
        entry = wait.entry
        if entry is not None:
            wait.entry = None
            self.sim._cancel_scheduled(entry)
        wake = self._wake
        for event in wait.events:
            if not event._done:
                event._callbacks.remove(wake)

    # -- control ---------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.alive:
            return
        self._interrupts.append(Interrupt(cause))
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            # Detach from whatever it was waiting on - a sleep's heap
            # entry, an AnyWait or a completion - and resume with the
            # interrupt at the next event-loop turn.
            cls = waiting.__class__
            if cls is list:
                self.sim._cancel_scheduled(waiting)
            elif cls is AnyWait:
                self._leave(waiting)
            else:
                try:
                    waiting._callbacks.remove(self._wake)
                except ValueError:
                    pass
            self.sim._schedule_at(self.sim._now, self._wake,
                                  _NOTHING_HAPPENED)


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

    def timeout(self, delay: int) -> Sleep:
        """A :class:`Sleep` that ends *delay* ns from now: yield it at once."""
        if delay < 0:
            raise SimulationError("negative timeout %r" % delay)
        if delay.__class__ is not int:
            delay = int(delay)
        return Sleep(self._now + delay)

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
