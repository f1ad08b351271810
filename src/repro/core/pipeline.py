"""Queue pipelines: merge, filter, sort, map, qconnect (sections 4.2-4.3).

Derived queues compose over source queues.  Each runs a *pump* process
that pops the source and feeds processed elements into its own buffer -
so a pop from the derived queue returns a processed element, and a push
into it forwards (after processing) to the source(s), matching the
paper's semantics.

**Directionality.**  Creating a derived queue makes it the flow's new
endpoint: its pump consumes the source, so applications should stop
popping the source directly (exactly like the paper's usage, where the
filtered/sorted queue replaces the original in the datapath).  A push
into a derived queue forwards to the source *and* the pump then carries
the element back into the derived buffer - for ``map`` that means the
function applies in both directions, one per traversal.

**Placement.**  Element functions run on the kernel-bypass accelerator
when its offload engine supports the operator, else on the host CPU -
"library OSes always implement filters directly on supported devices but
default to using the CPU if necessary".  Device placement charges the
device pipeline and *zero host CPU*; CPU placement charges
``costs.pipeline_element_cpu_ns`` per element on the libOS core.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, List, Tuple

from ..sim.engine import Interrupt
from ..telemetry import names
from .queue import DemiQueue
from .types import OP_POP, OP_PUSH, DemiError, QResult, QToken, Sga

__all__ = ["FilteredQueue", "MappedQueue", "MergedQueue", "SortedQueue",
           "QueueConnector"]

#: derived queues buffer at most this many prefetched elements
DERIVED_QUEUE_CAPACITY = 1024

#: sentinel: SortedQueue.deliver called without a precomputed key (a
#: direct external deliver); the pump always passes the computed key
_NO_KEY = object()


class ElementRunner:
    """Runs an operator's element function on the device or the CPU."""

    def __init__(self, libos, operator: str):
        self.libos = libos
        self.operator = operator
        engine = libos.offload_engine
        self.engine = engine if (engine is not None
                                 and engine.supports(operator)) else None

    def run(self, fn: Callable, sga: Sga) -> Generator:
        """Sim-coroutine: returns fn(sga), charging the right place."""
        counters = self.libos.counters
        if self.engine is not None:
            counters.count(names.pipeline_device_elements(self.operator))
            result = yield self.engine.run(self.operator, fn, sga)
            return result
        counters.count(names.pipeline_cpu_elements(self.operator))
        yield self.libos.core.busy(self.libos.costs.pipeline_element_cpu_ns)
        return fn(sga)


class _DerivedQueue(DemiQueue):
    """Shared pump machinery for queues derived from source queues."""

    operator = "derived"

    def __init__(self, libos, qd: int, sources: List[DemiQueue]):
        super().__init__(libos, qd)
        self.sources = sources
        self.capacity = DERIVED_QUEUE_CAPACITY
        self.runner = ElementRunner(libos, self.operator)
        #: source -> the pump's currently-outstanding pop token, so reap()
        #: can cancel it (otherwise it would swallow a later element)
        self._pump_tokens = {}
        #: sources still producing; when the last one ends cleanly the
        #: derived queue reaches EOF (a merge keeps serving the survivor)
        self._live_sources = len(sources)
        for source in sources:
            self._spawn_pump(self._pump(source), "pump")

    # -- pop side --------------------------------------------------------------
    def _pump(self, source: DemiQueue) -> Generator:
        while not self.closed:
            if source.closed:
                self._source_ended("closed")
                return
            token = self.libos.pop(source.qd)
            self._pump_tokens[source] = token
            result = yield from self.libos.qtokens.wait(token)
            self._pump_tokens.pop(source, None)
            if self.closed:
                return
            if result.error is not None:
                self._source_ended(result.error)
                return
            try:
                element = yield from self._process(result.sga)
            except Exception as exc:
                if isinstance(exc, Interrupt):
                    raise  # reap() interrupting us mid-_process
                # The element function blew up: the pipeline is broken,
                # and pretending otherwise would hang every pending pop.
                self.fail_pops("element function failed: %s" % (exc,))
                return
            if element is None:
                continue
            while not self.has_room() and not self.closed:
                yield self.space_wq.wait()
            if self.closed:
                return
            if isinstance(element, tuple):
                sga, value = element  # _process threaded a value through
                self.deliver(sga, value=value)
            else:
                self.deliver(element)

    def _source_ended(self, error: object) -> None:
        """A source stopped producing: propagate instead of going silent.

        A clean end ("eof"/"closed") only EOFs the derived queue once the
        *last* source ends - a merged queue keeps serving the survivor.
        Anything else is a transport death: pending and future pops fail
        with that error immediately, matching DemiQueue semantics.
        """
        if error in ("eof", "closed"):
            self._live_sources -= 1
            if self._live_sources <= 0:
                self.mark_eof()
        else:
            self.fail_pops(str(error))

    def _process(self, sga: Sga) -> Generator:
        """Transform a popped element; None drops it."""
        raise NotImplementedError
        yield  # pragma: no cover

    def pop_sga(self, token: QToken) -> None:
        super().pop_sga(token)
        # A pop freed buffer space: let stalled pumps continue.
        self.space_wq.pulse()

    # -- push side ---------------------------------------------------------------
    def push_sga(self, sga: Sga, token: QToken) -> None:
        self.libos.sim.spawn(self._push_guard(sga, token),
                             name="%s.q%d.push" % (self.libos.name, self.qd))

    def _push_guard(self, sga: Sga, token: QToken) -> Generator:
        """A raising element function must still complete the push token."""
        if self.closed:  # died in the instant it pushed: no user code after
            self._complete(token, QResult(OP_PUSH, self.qd, error="closed"))
            return
        try:
            yield from self._push_driver(sga, token)
        except Exception as exc:
            if isinstance(exc, Interrupt):
                raise
            try:
                self._complete(token, QResult(
                    OP_PUSH, self.qd,
                    error="element function failed: %s" % (exc,)))
            except DemiError:
                pass  # token already retired (e.g. cancelled)

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        """Asynchronous push-forwarding; completes *token* at the end."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _forward_push(self, target: DemiQueue, sga: Sga) -> Generator:
        sub_token, _done = self.libos.qtokens.create()
        target.push_sga(sga, sub_token)
        result = yield from self.libos.qtokens.wait(sub_token)
        return result

    def reap(self) -> None:
        super().reap()
        # Cancel the pumps' in-flight pops so they don't consume a later
        # element on behalf of a dead queue.  Cancelling through the
        # qtoken table (not by plucking the token out of the source's
        # pending-pop deque) retires the token properly - otherwise it
        # stays "in flight" forever and the lifecycle identity
        # ``created == completed + cancelled + in_flight`` never closes.
        for source, token in list(self._pump_tokens.items()):
            try:
                self.libos.qtokens.cancel(token)
            except DemiError:
                pass  # completed in this very tick; the pump retired it
        self._pump_tokens.clear()


class FilteredQueue(_DerivedQueue):
    """Only elements satisfying the predicate pass (either direction)."""

    kind = "filter"
    operator = "filter"

    def __init__(self, libos, qd: int, source: DemiQueue,
                 predicate: Callable[[Sga], bool]):
        self.predicate = predicate
        super().__init__(libos, qd, [source])

    def _process(self, sga: Sga) -> Generator:
        keep = yield from self.runner.run(self.predicate, sga)
        if keep:
            return sga
        self.libos.counters.count(names.PIPELINE_FILTER_DROPPED)
        return None

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        keep = yield from self.runner.run(self.predicate, sga)
        if not keep:
            self.libos.counters.count(names.PIPELINE_FILTER_DROPPED)
            self._complete(token, QResult(OP_PUSH, self.qd, nbytes=0,
                                          value="filtered"))
            return
        result = yield from self._forward_push(self.sources[0], sga)
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes,
                                      error=result.error))


class MappedQueue(_DerivedQueue):
    """Applies a transform to every element (either direction)."""

    kind = "map"
    operator = "map"

    def __init__(self, libos, qd: int, source: DemiQueue,
                 fn: Callable[[Sga], Sga]):
        self.fn = fn
        super().__init__(libos, qd, [source])

    def _process(self, sga: Sga) -> Generator:
        mapped = yield from self.runner.run(self.fn, sga)
        if not isinstance(mapped, Sga):
            raise DemiError("map function must return an Sga")
        return mapped

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        mapped = yield from self.runner.run(self.fn, sga)
        result = yield from self._forward_push(self.sources[0], mapped)
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=mapped.nbytes,
                                      error=result.error))


class MergedQueue(_DerivedQueue):
    """Pops take from either source; pushes go to both (section 4.3)."""

    kind = "merge"
    operator = "merge"

    def __init__(self, libos, qd: int, source1: DemiQueue, source2: DemiQueue):
        super().__init__(libos, qd, [source1, source2])

    def _process(self, sga: Sga) -> Generator:
        return sga
        yield  # pragma: no cover

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        tokens = []
        for source in self.sources:
            sub_token, _done = self.libos.qtokens.create()
            source.push_sga(sga, sub_token)
            tokens.append(sub_token)
        error = None
        for sub_token in tokens:
            result = yield from self.libos.qtokens.wait(sub_token)
            if result.error is not None:
                error = result.error
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes,
                                      error=error))


class SortedQueue(_DerivedQueue):
    """Pops return the highest-priority (lowest key) buffered element."""

    kind = "sort"
    operator = "sort"

    def __init__(self, libos, qd: int, source: DemiQueue,
                 key: Callable[[Sga], object]):
        self.key = key
        self._heap: List[Tuple[object, int, Sga]] = []
        self._heap_seq = 0
        super().__init__(libos, qd, [source])

    def _process(self, sga: Sga) -> Generator:
        # The key runs on the placement target *once*; deliver() receives
        # the computed key as the ride-along value so it never re-runs
        # the function uncharged on the host.
        key = yield from self.runner.run(self.key, sga)
        return (sga, key)

    # Reorder on arrival instead of FIFO.
    def deliver(self, sga: Sga, value: object = _NO_KEY) -> None:
        if self.closed:
            return
        key = self.key(sga) if value is _NO_KEY else value
        self._heap_seq += 1
        heapq.heappush(self._heap, (key, self._heap_seq, sga))
        self._drain_to_pops()

    def _drain_to_pops(self) -> None:
        while self._pending_pops and self._heap:
            token = self._pending_pops.popleft()
            _key, _seq, sga = heapq.heappop(self._heap)
            self._complete(token, QResult(OP_POP, self.qd, sga=sga,
                                          nbytes=sga.nbytes))
        self.space_wq.pulse()

    def pop_sga(self, token: QToken) -> None:
        if self.closed:
            self._complete(token, QResult(OP_POP, self.qd, error="closed"))
            return
        if not self._heap and self.eof:
            self._complete(token, QResult(OP_POP, self.qd,
                                          error=self.error or "eof"))
            return
        self._pending_pops.append(token)
        self._drain_to_pops()

    def has_room(self) -> bool:
        return len(self._heap) < (self.capacity or DERIVED_QUEUE_CAPACITY)

    def _push_driver(self, sga: Sga, token: QToken) -> Generator:
        result = yield from self._forward_push(self.sources[0], sga)
        self._complete(token, QResult(OP_PUSH, self.qd, nbytes=sga.nbytes,
                                      error=result.error))


class QueueConnector:
    """``qconnect``: continuously move elements from one queue to another."""

    def __init__(self, libos, q_in: DemiQueue, q_out: DemiQueue):
        self.libos = libos
        self.q_in = q_in
        self.q_out = q_out
        self.stopped = False
        self._proc = libos.sim.spawn(
            self._run(), name="%s.qconnect" % libos.name)

    def _run(self) -> Generator:
        while not self.stopped:
            result = yield from self.libos.blocking_pop(self.q_in.qd)
            if result.error is not None:
                break
            push_result = yield from self.libos.blocking_push(
                self.q_out.qd, result.sga)
            if push_result.error is not None:
                break

    def stop(self) -> None:
        self.stopped = True
        if self._proc.alive:
            self._proc.interrupt("qconnect stopped")
