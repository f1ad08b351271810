"""The qtoken table behind the ``wait_*`` calls (paper section 4.4).

Every non-blocking ``push``/``pop`` mints a qtoken bound to exactly one
queue operation.  Because tokens are per-operation (not per-descriptor
like POSIX fds), a wait can guarantee the two properties the paper
claims over epoll:

1. ``wait`` returns the operation's *data* directly - no second syscall
   to fetch it;
2. each completion wakes exactly one waiter - no thundering herd, no
   wasted wake-ups.

The table mints, completes, cancels and retires tokens; the
application's waits are :class:`repro.core.api.LibOS`'s, each one frame
that parks the process on the tokens' completions.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..sim.engine import Completion, Simulator
from ..telemetry import names
from .types import DemiError, QResult, QToken

__all__ = ["QTokenTable"]


class QTokenTable:
    """Maps live qtokens to their one-shot completions."""

    def __init__(self, sim: Simulator, tracer, name: str = "qt"):
        self.sim = sim
        self.tracer = tracer
        self.name = name
        self.counters = tracer.scope(name)
        #: token -> (its completion, what runs if it is cancelled)
        self._pending: Dict[QToken, Tuple[Completion, Optional[
            Callable[[QToken], None]]]] = {}
        self._cancelled: Set[QToken] = set()
        #: token -> span covering the operation's lifetime (tracing only)
        self._spans: Dict[QToken, object] = {}
        self._next_token: QToken = 1

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
        self._pending[token] = (done, on_cancel)
        self.counters.qtokens_created += 1
        return token, done

    def trace(self, token: QToken, name: str, **args) -> None:
        """Start the span of *token*'s operation; it ends, and its length
        is sampled, when the token completes or is cancelled."""
        self._spans[token] = self.counters.span(name, names.CAT_LIBOS,
                                                self.sim.now, **args)

    def complete(self, token: QToken, result: QResult) -> bool:
        """Deliver *result* to the token's waiter; False if the token was
        cancelled and the result dropped (whoever made it frees it)."""
        entry = self._pending.get(token)
        if entry is None:
            if token in self._cancelled:
                # The operation raced its own cancellation (e.g. a stalled
                # device finally finished).  The token's waiter is gone;
                # dropping the result here is what keeps cancel safe.
                self.counters.late_completions_dropped += 1
                return False
            raise DemiError("completion of unknown qtoken %r" % token)
        done = entry[0]
        self.counters.qtokens_completed += 1
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
        entry = self._pending.get(token)
        if entry is None:
            raise DemiError("cancel of unknown qtoken %r" % token)
        done, on_cancel = entry
        if done.triggered:
            raise DemiError("cancel of already-completed qtoken %r" % token)
        del self._pending[token]
        self._cancelled.add(token)
        if on_cancel is not None:
            on_cancel(token)
        if self.tracer.tracing:
            span = self._spans.pop(token, None)
            if span is not None:
                span.end(self.sim.now, cancelled=True)
        self.counters.qtokens_cancelled += 1

    def completion_of(self, token: QToken) -> Completion:
        entry = self._pending.get(token)
        if entry is None:
            raise DemiError("unknown or already-waited qtoken %r" % token)
        return entry[0]

    def completions_of(self, tokens: Sequence[QToken]) -> List[Completion]:
        """The completions of *tokens*, in order: what a wait parks on."""
        pending = self._pending
        try:
            return [pending[token][0] for token in tokens]
        except KeyError as unknown:
            raise DemiError("unknown or already-waited qtoken %r"
                            % unknown.args[0]) from None

    # Lifecycle accounting: every minted token must end up exactly one of
    # completed or cancelled - chaos tests assert the identity
    # ``created == completed + cancelled + in_flight``.  The table's
    # scope counts them; these read it for perfbench.
    @property
    def created(self) -> int:
        return self.counters.qtokens_created

    @property
    def completed(self) -> int:
        return self.counters.qtokens_completed

    @property
    def cancelled(self) -> int:
        return self.counters.qtokens_cancelled

    @property
    def in_flight(self) -> int:
        """Tokens whose operation has neither completed nor cancelled."""
        return sum(1 for done, _ in self._pending.values()
                   if not done.triggered)

    @property
    def identity_ok(self) -> bool:
        """The lifecycle identity: every minted token is exactly one of
        completed, cancelled or still in flight."""
        counters = self.counters
        return counters.qtokens_created == (counters.qtokens_completed
                                            + counters.qtokens_cancelled
                                            + self.in_flight)

    def retire(self, token: QToken) -> None:
        """Forget a token whose result a wait has taken."""
        self._pending.pop(token, None)

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
        for token, (done, _) in list(self._pending.items()):
            if done.triggered:
                self.retire(token)
                retired += 1
            else:
                self.cancel(token)
                cancelled += 1
        return cancelled, retired

    # -- waiting ---------------------------------------------------------------
    def wait(self, token: QToken) -> Generator:
        """Sim-coroutine: block until *token* completes; returns QResult.

        Uncharged: a libOS's own machinery (a derived queue's pump, the
        event loop's teardown) waits here; an application waits through
        :meth:`repro.core.api.LibOS.wait`, which pays ``wait_dispatch``.
        """
        entered = self.sim.now if self.tracer.tracing else None
        result = yield self.completion_of(token)
        self.retire(token)
        self.counters.waits += 1
        if entered is not None:
            self._trace_dispatch(entered)
        return result

    def _trace_dispatch(self, entered: int) -> None:
        """One sample of how long a ``wait_*`` call took, entry to
        return; a caller reads *entered* off the clock only if tracing."""
        self.counters.distribution(names.WAIT_DISPATCH_NS).add(
            self.sim.now - entered)
