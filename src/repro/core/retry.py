"""Seeded exponential backoff for transient I/O failures.

Kernel-bypass datapaths surface failures as typed exceptions
(:class:`~repro.core.types.DemiTimeout`, connection resets, flushed
work requests) rather than blocking forever, which makes every client
responsible for its own retry policy.  :func:`retry_with_backoff`
centralises that policy: exponential delay growth, *seeded* equal
jitter (so a run replays byte-for-byte from its seed), and a hard
budget on both attempts and elapsed simulated time.  When the budget
is exhausted, the typed :class:`RetryBudgetExceeded` carries the full
history so callers can distinguish "gave up" from the underlying
fault.

The *attempt* argument is a zero-argument callable returning a sim
generator (the operation to retry).  The helper itself is a generator:
drive it from a sim process with ``result = yield from
retry_with_backoff(sim, attempt, rng=rng)``.
"""

from __future__ import annotations

from typing import Callable, Tuple, Type

from .types import DemiError

__all__ = ["RetryBudgetExceeded", "retry_with_backoff"]


class RetryBudgetExceeded(DemiError):
    """All retries spent without success.

    ``attempts`` is how many times the operation ran, ``elapsed_ns``
    the simulated time the whole retry loop consumed, and
    ``last_error`` the exception raised by the final attempt (also
    chained as ``__cause__``).
    """

    def __init__(self, op: str, attempts: int, elapsed_ns: int,
                 last_error: BaseException):
        super().__init__(
            "%s: gave up after %d attempts over %d ns (last error: %s)"
            % (op, attempts, elapsed_ns, last_error))
        self.op = op
        self.attempts = attempts
        self.elapsed_ns = elapsed_ns
        self.last_error = last_error


def retry_with_backoff(sim, attempt: Callable, *, rng,
                       retry_on: Tuple[Type[BaseException], ...] = (DemiError,),
                       base_delay_ns: int = 10_000,
                       max_delay_ns: int = 1_000_000,
                       factor: float = 2.0,
                       max_attempts: int = 8,
                       budget_ns: int = 10_000_000,
                       op: str = "operation"):
    """Run ``attempt()`` until it succeeds, with exponential backoff.

    Retries only exceptions matching *retry_on*; anything else
    propagates immediately (a programming error is not transient).
    Gives up - raising :class:`RetryBudgetExceeded` - after
    *max_attempts* tries or once *budget_ns* of simulated time has
    elapsed, whichever comes first.  Equal jitter: the delay after the
    n-th failure is one ``rng.randint`` from ``[cap/2, cap]``, where
    ``cap = min(max_delay_ns, base_delay_ns * factor**n)``, so two runs
    with the same seed back off identically.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    start = sim.now
    last_error: BaseException = None  # type: ignore[assignment]
    for n in range(max_attempts):
        try:
            result = yield from attempt()
            return result
        except retry_on as exc:
            last_error = exc
        elapsed = sim.now - start
        if n + 1 >= max_attempts or elapsed >= budget_ns:
            raise RetryBudgetExceeded(op, n + 1, elapsed,
                                      last_error) from last_error
        cap = min(max_delay_ns, int(base_delay_ns * (factor ** n)))
        cap = max(cap, 1)
        delay = rng.randint(cap // 2 if cap > 1 else 1, cap)
        # Never sleep past the budget: clamp so the final attempt still
        # happens inside it.
        delay = min(delay, max(1, budget_ns - elapsed))
        yield sim.timeout(delay)
    raise RetryBudgetExceeded(op, max_attempts, sim.now - start, last_error) \
        from last_error
