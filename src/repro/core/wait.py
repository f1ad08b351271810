"""The qtoken table and the ``wait_*`` scheduler (paper section 4.4).

Every non-blocking ``push``/``pop`` mints a qtoken bound to exactly one
queue operation.  Because tokens are per-operation (not per-descriptor
like POSIX fds), the scheduler can guarantee the two properties the paper
claims over epoll:

1. ``wait`` returns the operation's *data* directly - no second syscall
   to fetch it;
2. each completion wakes exactly one waiter - no thundering herd, no
   wasted wake-ups.

Timeouts raise :class:`repro.core.types.DemiTimeout`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..sim.engine import Completion, Simulator, any_of
from ..telemetry import names
from .types import DemiError, DemiTimeout, QResult, QToken

__all__ = ["QTokenTable", "WAIT_TIMEOUT"]

#: sentinel used internally to tag the timeout event in ``any_of``
WAIT_TIMEOUT = "timeout"


class QTokenTable:
    """Maps live qtokens to their one-shot completions."""

    def __init__(self, sim: Simulator, tracer, name: str = "qt"):
        self.sim = sim
        self.tracer = tracer
        self.name = name
        self.counters = tracer.scope(name)
        self._pending: Dict[QToken, Completion] = {}
        self._on_cancel: Dict[QToken, Callable[[QToken], None]] = {}
        self._cancelled: Set[QToken] = set()
        #: token -> span covering the operation's lifetime (tracing only)
        self._spans: Dict[QToken, object] = {}
        self._next_token: QToken = 1
        # Lifecycle accounting: every minted token must end up exactly one
        # of completed or cancelled - chaos tests assert the identity
        # ``created == completed + cancelled + in_flight``.
        self.created = 0
        self.completed = 0
        self.cancelled = 0

    # -- creation / completion (queue side) -----------------------------------
    def create(self, on_cancel: Optional[Callable[[QToken], None]] = None
               ) -> Tuple[QToken, Completion]:
        """Mint a token and the completion that will carry its QResult.

        *on_cancel* runs if the token is cancelled before completing, so
        the owning queue can unregister the operation.
        """
        token = self._next_token
        self._next_token += 1
        done = Completion(self.sim, ("%s.%d", self.name, token))
        self._pending[token] = done
        if on_cancel is not None:
            self._on_cancel[token] = on_cancel
        self.created += 1
        self.counters.count(names.QTOKENS_CREATED)
        return token, done

    def trace(self, token: QToken, name: str, **args) -> None:
        """Start the span of *token*'s operation; it ends, and its length
        is sampled, when the token completes or is cancelled."""
        self._spans[token] = self.counters.span(name, names.CAT_LIBOS,
                                                self.sim.now, **args)

    def complete(self, token: QToken, result: QResult) -> bool:
        """Deliver *result* to the token's waiter; False if the token was
        cancelled and the result dropped (whoever made it frees it)."""
        done = self._pending.get(token)
        if done is None:
            if token in self._cancelled:
                # The operation raced its own cancellation (e.g. a stalled
                # device finally finished).  The token's waiter is gone;
                # dropping the result here is what keeps cancel safe.
                self.counters.count(names.LATE_COMPLETIONS_DROPPED)
                return False
            raise DemiError("completion of unknown qtoken %r" % token)
        self.completed += 1
        self.counters.count(names.QTOKENS_COMPLETED)
        if self.tracer.tracing:
            span = self._spans.pop(token, None)
            if span is not None:
                span.end(self.sim.now, nbytes=result.nbytes,
                         error=result.error)
                self.counters.distribution(names.QTOKEN_LIFETIME_NS).add(
                    span.duration_ns)
        done.trigger(result)
        return True

    def cancel(self, token: QToken) -> None:
        """Abandon a not-yet-completed operation.

        The token is retired immediately: its completion will never fire,
        no waiter can wake on it, and a late completion from the device is
        silently dropped.  Cancelling a token whose operation already
        completed is an error - wait for it instead.
        """
        done = self._pending.get(token)
        if done is None:
            raise DemiError("cancel of unknown qtoken %r" % token)
        if done.triggered:
            raise DemiError("cancel of already-completed qtoken %r" % token)
        del self._pending[token]
        self._cancelled.add(token)
        self.cancelled += 1
        on_cancel = self._on_cancel.pop(token, None)
        if on_cancel is not None:
            on_cancel(token)
        if self.tracer.tracing:
            span = self._spans.pop(token, None)
            if span is not None:
                span.end(self.sim.now, cancelled=True)
        self.counters.count(names.QTOKENS_CANCELLED)

    def completion_of(self, token: QToken) -> Completion:
        done = self._pending.get(token)
        if done is None:
            raise DemiError("unknown or already-waited qtoken %r" % token)
        return done

    @property
    def in_flight(self) -> int:
        """Tokens whose operation has neither completed nor cancelled."""
        return sum(1 for d in self._pending.values() if not d.triggered)

    @property
    def identity_ok(self) -> bool:
        """The lifecycle identity: every minted token is exactly one of
        completed, cancelled or still in flight."""
        return self.created == self.completed + self.cancelled + self.in_flight

    def _retire(self, token: QToken) -> None:
        self._pending.pop(token, None)
        self._on_cancel.pop(token, None)

    def reap_all(self) -> Tuple[int, int]:
        """Crash teardown: retire every live token at once.

        Untriggered tokens are cancelled (their queues forget the
        operation and late device completions drop); completed-but-
        never-waited tokens are retired so their results are discarded.
        The lifecycle identity ``created == completed + cancelled +
        in_flight`` still holds afterwards, with ``in_flight == 0``.
        Returns ``(cancelled, retired)``.
        """
        cancelled = retired = 0
        for token, done in list(self._pending.items()):
            if done.triggered:
                self._retire(token)
                retired += 1
            else:
                self.cancel(token)
                cancelled += 1
        return cancelled, retired

    # -- waiting (application side) ---------------------------------------------
    def _trace_dispatch(self, entered: int) -> None:
        """One sample of how long a ``wait_*`` call took, entry to
        return; a caller reads *entered* off the clock only if tracing."""
        self.counters.distribution(names.WAIT_DISPATCH_NS).add(
            self.sim.now - entered)

    def wait(self, token: QToken, charge=None) -> Generator:
        """Sim-coroutine: block until *token* completes; returns QResult."""
        entered = self.sim.now if self.tracer.tracing else None
        done = self.completion_of(token)
        result = yield done
        self._retire(token)
        if charge is not None:
            yield charge()
        self.counters.count(names.WAITS)
        if entered is not None:
            self._trace_dispatch(entered)
        return result

    def wait_any(self, tokens: Sequence[QToken], timeout_ns: Optional[int] = None,
                 charge=None) -> Generator:
        """Sim-coroutine: first completion among *tokens*.

        Returns ``(index, QResult)``; raises :class:`DemiTimeout` if
        *timeout_ns* elapses first.  The losing (and timed-out) tokens
        stay valid - wait for them later.  Exactly one waiter wakes per
        completion because each token has exactly one completion and
        this call consumes it.
        """
        if not tokens:
            raise DemiError("wait_any on no tokens")
        entered = self.sim.now if self.tracer.tracing else None
        events = [self.completion_of(t) for t in tokens]
        timer = None
        if timeout_ns is not None:
            timer = self.sim.timeout(timeout_ns, WAIT_TIMEOUT)
            events.append(timer)
        index, value = yield any_of(self.sim, events)
        if timer is not None:
            if index == len(tokens):
                self.counters.count(names.WAIT_TIMEOUTS)
                raise DemiTimeout(timeout_ns, tokens)
            # A token won before the deadline: withdraw the timer so it
            # doesn't linger on the sim heap until the deadline passes.
            timer.cancel()
        self._retire(tokens[index])
        if charge is not None:
            yield charge()
        self.counters.count(names.WAITS)
        if entered is not None:
            self._trace_dispatch(entered)
        return index, value

    def wait_any_n(self, tokens: Sequence[QToken],
                   timeout_ns: Optional[int] = None,
                   charge=None) -> Generator:
        """Sim-coroutine: batch drain - every ready token in one crossing.

        Blocks like :meth:`wait_any` until at least one token completes,
        then sweeps the rest of *tokens* and also returns any that are
        already triggered at that same instant.
        Returns a list of ``(index, QResult)`` pairs sorted by index;
        the list is never empty.  Tokens not returned stay valid.

        This is the crossing-amortization primitive: a server that waited
        N times to drain N completions now pays one ``wait_dispatch``
        per *batch*.  The exactly-one-waiter guarantee is untouched -
        every returned token is retired here, so a second wait on it
        raises.
        """
        if not tokens:
            raise DemiError("wait_any_n on no tokens")
        entered = self.sim.now if self.tracer.tracing else None
        events = [self.completion_of(t) for t in tokens]
        timer = None
        if timeout_ns is not None:
            timer = self.sim.timeout(timeout_ns, WAIT_TIMEOUT)
            events.append(timer)
        index, value = yield any_of(self.sim, events)
        if timer is not None:
            if index == len(tokens):
                self.counters.count(names.WAIT_TIMEOUTS)
                raise DemiTimeout(timeout_ns, tokens)
            timer.cancel()
            events.pop()  # what is left is the tokens' completions
        ready: List[Tuple[int, QResult]] = [(index, value)]
        for i, done in enumerate(events):
            if i != index and done.triggered:
                ready.append((i, done.value))
        ready.sort(key=lambda pair: pair[0])
        for i, _ in ready:
            self._retire(tokens[i])
        if charge is not None:
            yield charge()
        self.counters.count(names.WAITS)
        self.counters.count(names.BATCH_WAITS)
        self.counters.count(names.BATCH_WAIT_COMPLETIONS, len(ready))
        if entered is not None:
            self._trace_dispatch(entered)
        return ready

    def wait_all(self, tokens: Sequence[QToken], timeout_ns: Optional[int] = None,
                 charge=None) -> Generator:
        """Sim-coroutine: wait for every token; returns list of QResults.

        Raises :class:`DemiTimeout` if *timeout_ns* elapses first
        (individual tokens remain waitable).
        """
        if not tokens:
            return []
        results: List[Optional[QResult]] = [None] * len(tokens)
        remaining = set(range(len(tokens)))
        deadline = None if timeout_ns is None else self.sim.now + timeout_ns
        while remaining:
            if deadline is not None and self.sim.now >= deadline:
                # Budget exhausted between rounds: raise right away
                # instead of re-subscribing to every remaining
                # completion with a zero-ns timer race.
                self.counters.count(names.WAIT_TIMEOUTS)
                raise DemiTimeout(timeout_ns, tokens)
            budget = None if deadline is None else deadline - self.sim.now
            pending_tokens = [tokens[i] for i in sorted(remaining)]
            index_map = sorted(remaining)
            try:
                index, value = yield from self.wait_any(pending_tokens, budget,
                                                        charge=None)
            except DemiTimeout:
                # The inner wait_any already counted WAIT_TIMEOUTS once;
                # re-wrap with the caller's full timeout/token set only.
                raise DemiTimeout(timeout_ns, tokens)
            results[index_map[index]] = value
            remaining.discard(index_map[index])
        if charge is not None:
            yield charge()
        return results  # type: ignore[return-value]
