"""Property battery for the DPDK libOS's batched datapath.

Three invariants burst RX delivery and coalesced TX doorbells must never
bend:

* **FIFO per flow** - they must not reorder a TCP flow's elements, loss
  or no loss;
* **exactly-once completion** - pop and push tokens complete exactly
  once each, drained by ``wait_any_n`` or ``wait_all``; a second wait on
  a drained token raises, and the qtoken lifecycle identity closes;
* **burst-size equivalence** - polling one frame at a time
  (``rx_burst_size=1``: every frame pays the full ``user_net_rx_ns``) or
  a whole burst, the same workload under the same fault plan yields
  byte-identical streams (the burst only moves *costs*, never bytes or
  ordering).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import DemiError
from repro.sim.faults import FaultPlan
from repro.testbed import World, make_dpdk_libos_pair

US = 1_000

messages_lists = st.lists(st.binary(min_size=1, max_size=512),
                          min_size=1, max_size=24)


def _run_stream(messages, rx_burst_size=32, drop_rate=0.0, seed=5,
                plan=None):
    """Pipeline *messages* client->server over TCP; return the pops.

    The client posts every push before waiting (pipelined), so bursts
    actually form: several frames per doorbell on the TX side, several
    frames per poll-loop wake on the RX side.
    """
    w, client, server = make_dpdk_libos_pair(drop_rate=drop_rate, seed=seed)
    client.rx_burst_size = server.rx_burst_size = rx_burst_size
    if plan is not None:
        w.install_faults(plan)

    def server_proc():
        lqd = yield from server.socket()
        yield from server.bind(lqd, 7)
        yield from server.listen(lqd)
        qd = yield from server.accept(lqd)
        out = []
        for _ in messages:
            result = yield from server.blocking_pop(qd)
            out.append(result.sga.tobytes())
        return out

    def client_proc():
        qd = yield from client.socket()
        yield from client.connect(qd, "10.0.0.2", 7)
        tokens = [client.push(qd, client.sga_alloc(m)) for m in messages]
        yield from client.wait_all(tokens)

    sp = w.sim.spawn(server_proc())
    w.sim.spawn(client_proc())
    w.sim.run_until_complete(sp, limit=10**14)
    return sp.value, w


@st.composite
def recoverable_plans(draw):
    """Fault plans inside TCP's retry budget: loss, reorder and
    duplication windows."""
    plan = FaultPlan(seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        start = draw(st.integers(0, 800 * US))
        plan.loss(start, start + draw(st.integers(50 * US, 600 * US)),
                  rate=draw(st.floats(0.05, 0.3, allow_nan=False)))
    if draw(st.booleans()):
        start = draw(st.integers(0, 800 * US))
        plan.reorder(start, start + draw(st.integers(50 * US, 600 * US)),
                     rate=draw(st.floats(0.1, 0.5, allow_nan=False)),
                     jitter_ns=draw(st.integers(10 * US, 150 * US)))
    if draw(st.booleans()):
        start = draw(st.integers(0, 800 * US))
        plan.duplicate(start, start + draw(st.integers(50 * US, 600 * US)),
                       rate=draw(st.floats(0.1, 0.5, allow_nan=False)))
    return plan


class TestBurstFifoOrder:
    @given(messages_lists)
    @settings(max_examples=15, deadline=None)
    def test_burst_delivery_preserves_fifo(self, messages):
        """Pipelined pushes arrive whole and in order."""
        got, w = _run_stream(messages)
        assert got == messages
        # The fast path actually engaged: bursts were counted and every
        # burst frame is accounted for by the per-frame counter.
        rx_frames = w.tracer.get("server.catnip.stack.rx_frames")
        burst_frames = w.tracer.get("server.catnip.stack.rx_burst_frames")
        assert burst_frames == rx_frames

    @given(messages_lists, st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_fifo_survives_loss(self, messages, seed):
        """Retransmissions under loss cannot reorder the batched flow."""
        got, _w = _run_stream(messages, drop_rate=0.08, seed=seed)
        assert got == messages


class TestExactlyOnceCompletion:
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_drained_pops_complete_each_token_once(self, elements):
        """Each pop token yields exactly one element; re-wait raises."""
        from repro.core.api import LibOS

        w = World()
        host = w.add_host("h")
        libos = LibOS(host, "demi")
        qds = [libos.queue() for _ in elements]

        def proc():
            tokens = [libos.pop(qd) for qd in qds]
            assert len(set(tokens)) == len(elements)
            for qd, element in zip(qds, elements):
                yield from libos.blocking_push(qd, libos.sga_alloc(element))
            got = {}
            outstanding = list(tokens)
            index_of = {t: i for i, t in enumerate(tokens)}
            while outstanding:
                ready = yield from libos.wait_any_n(outstanding)
                for index, result in sorted(ready, reverse=True):
                    token = outstanding.pop(index)
                    # exactly-once: this token was never seen before
                    assert index_of[token] not in got
                    got[index_of[token]] = result.sga.tobytes()
            return got

        p = w.sim.spawn(proc())
        w.run()
        assert p.value == {i: e for i, e in enumerate(elements)}
        # A drained token is gone: waiting again must raise.
        def rewait():
            token = libos.pop(qds[0])
            libos.qtokens.cancel(token)
            try:
                yield from libos.wait(token)
            except DemiError:
                return "raised"
            return "no error"

        p2 = w.sim.spawn(rewait())
        w.run()
        assert p2.value == "raised"
        t = libos.qtokens
        assert t.created == t.completed + t.cancelled + t.in_flight

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_pushes_mint_one_token_per_element(self, elements):
        from repro.core.api import LibOS

        w = World()
        host = w.add_host("h")
        libos = LibOS(host, "demi")
        qd = libos.queue()

        def proc():
            tokens = [libos.push(qd, libos.sga_alloc(e)) for e in elements]
            assert len(set(tokens)) == len(elements)
            results = yield from libos.wait_all(tokens)
            out = []
            for _ in elements:
                result = yield from libos.blocking_pop(qd)
                out.append(result.sga.tobytes())
            return results, out

        p = w.sim.spawn(proc())
        w.run()
        results, out = p.value
        assert out == elements
        assert len(results) == len(elements)
        t = libos.qtokens
        assert t.created == t.completed + t.cancelled + t.in_flight


class TestBurstSizeEquivalence:
    @given(messages_lists, recoverable_plans())
    @settings(max_examples=10, deadline=None)
    def test_byte_identical_streams_under_faults(self, messages, plan):
        """The burst only moves costs: same plan, same bytes, same order."""
        single, _ = _run_stream(
            messages, rx_burst_size=1, seed=3,
            plan=FaultPlan(plan.seed, list(plan.events)))
        burst, _ = _run_stream(
            messages, seed=3, plan=FaultPlan(plan.seed, list(plan.events)))
        assert single == burst == messages

    @given(messages_lists, st.floats(0.0, 0.1, allow_nan=False),
           st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_byte_identical_streams_under_loss(self, messages, drop_rate,
                                               seed):
        single, _ = _run_stream(messages, rx_burst_size=1,
                                drop_rate=drop_rate, seed=seed)
        burst, _ = _run_stream(messages, drop_rate=drop_rate, seed=seed)
        assert single == burst == messages
