"""Batch-counter reconciliation on the DPDK poll-mode driver.

The tests pin the batched datapath's bookkeeping:
every frame the libOS posts is covered by exactly one doorbell or a
``doorbells_saved`` credit, and every frame the stack consumed came in
through a counted burst.
"""

from repro.testbed import make_dpdk_libos_pair

MESSAGES = [b"m%02d" % i * 8 for i in range(8)]


def _echo_once(w, client, server, n_messages=8):
    """Connect, then pipeline a burst of pushes."""
    messages = MESSAGES[:n_messages]

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
    assert sp.value == messages


class TestCounterReconciliation:
    def test_doorbells_cover_every_posted_frame(self):
        w, client, server = make_dpdk_libos_pair(batching=True)
        _echo_once(w, client, server)
        for side, nic in (("client", "dpdk0"), ("server", "dpdk0")):
            posted = w.tracer.get("%s.%s.tx_frames" % (side, nic))
            doorbells = w.tracer.get("%s.catnip.doorbells" % side)
            saved = w.tracer.get("%s.catnip.doorbells_saved" % side)
            assert posted > 0
            assert doorbells + saved == posted, (
                "%s: %d doorbells + %d saved != %d frames posted"
                % (side, doorbells, saved, posted))
            # With batching, every post goes through the burst path.
            assert w.tracer.get("%s.%s.tx_burst_frames"
                                % (side, nic)) == posted

    def test_coalescing_saves_doorbells_on_pipelined_bursts(self):
        w, client, server = make_dpdk_libos_pair(batching=True)
        _echo_once(w, client, server)
        assert w.tracer.get("client.catnip.doorbells_saved") > 0

    def test_burst_frames_reconcile_with_stack_deliveries(self):
        w, client, server = make_dpdk_libos_pair(batching=True)
        _echo_once(w, client, server)
        for side in ("client", "server"):
            delivered = w.tracer.get("%s.catnip.stack.rx_frames" % side)
            via_bursts = w.tracer.get(
                "%s.catnip.stack.rx_burst_frames" % side)
            assert delivered > 0
            assert via_bursts == delivered

    def test_singleton_path_posts_one_doorbell_per_frame(self):
        w, client, server = make_dpdk_libos_pair(batching=False)
        _echo_once(w, client, server)
        for side in ("client", "server"):
            posted = w.tracer.get("%s.dpdk0.tx_frames" % side)
            doorbells = w.tracer.get("%s.catnip.doorbells" % side)
            assert doorbells == posted
            assert w.tracer.get("%s.catnip.doorbells_saved" % side) == 0
