"""Small synchronization helpers on top of the engine."""

from __future__ import annotations

from typing import Any, List

from .engine import Completion, Simulator

__all__ = ["WaitQueue"]


class WaitQueue:
    """A pulse-style wait queue: ``wait()`` parks, ``pulse()`` wakes.

    ``pulse()`` wakes *all* current waiters (callers re-check their
    condition, classic condition-variable usage); ``pulse_one()`` wakes
    exactly one in FIFO order - the primitive the Demikernel ``wait_*``
    scheduler builds its no-thundering-herd guarantee on.
    """

    def __init__(self, sim: Simulator, name: str = "waitq"):
        self.sim = sim
        self.name = name
        self._wait_label = "%s.wait" % name
        self._waiters: List[Completion] = []
        self._observers: List[Any] = []
        self.pulses = 0

    def wait(self) -> Completion:
        done = Completion(self.sim, self._wait_label)
        self._waiters.append(done)
        return done

    def subscribe(self, callback) -> None:
        """Persistent observer: *callback()* runs on every pulse.

        Used by epoll-style multiplexers that forward readiness from many
        sources into their own wait queue.
        """
        self._observers.append(callback)

    def unsubscribe(self, callback) -> None:
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def pulse(self, value: Any = None) -> int:
        """Wake every waiter; returns how many woke."""
        self.pulses += 1
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.trigger(value)
        for observer in list(self._observers):
            observer()
        return len(waiters)

    def pulse_one(self, value: Any = None) -> bool:
        """Wake the oldest waiter only; returns True if one existed."""
        self.pulses += 1
        if not self._waiters:
            return False
        self._waiters.pop(0).trigger(value)
        return True

    @property
    def waiting(self) -> int:
        return len(self._waiters)
