"""Small synchronization helpers on top of the engine."""

from __future__ import annotations

from typing import Any, List

from .engine import Completion, Simulator

__all__ = ["WaitQueue"]


class WaitQueue:
    """A pulse-style wait queue: ``wait()`` parks, ``pulse()`` wakes.

    ``pulse()`` wakes *all* current waiters (callers re-check their
    condition, classic condition-variable usage).
    """

    def __init__(self, sim: Simulator, name: str = "waitq"):
        self.sim = sim
        self.name = name
        self._wait_label = "%s.wait" % name
        self._waiters: List[Completion] = []
        self._observers: List[Any] = []

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

    def pulse(self, value: Any = None) -> int:
        """Wake every waiter; returns how many woke."""
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.trigger(value)
        for observer in list(self._observers):
            observer()
        return len(waiters)
