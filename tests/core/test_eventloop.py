"""Tests for the libevent-style DemiEventLoop (section 4.4 future work)."""

import pytest

from repro.core.api import LibOS
from repro.core.eventloop import DemiEventLoop

from ..conftest import World, make_dpdk_libos_pair


def make_loop():
    w = World()
    host = w.add_host("h")
    libos = LibOS(host, "demi")
    loop = DemiEventLoop(libos)
    w.sim.spawn(loop.run(), name="eventloop")
    return w, libos, loop


class TestPopEvents:
    def test_callback_receives_element(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        got = []
        loop.add_pop_event(qd, lambda result: got.append(result.sga.tobytes()))
        w.sim.call_in(1000, lambda: libos.push(qd, libos.sga_alloc(b"ev-1")))
        w.run(until=1_000_000)
        loop.stop()
        assert got == [b"ev-1"]

    def test_event_fires_repeatedly(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        got = []
        loop.add_pop_event(qd, lambda r: got.append(r.sga.tobytes()))

        def producer():
            for i in range(5):
                yield from libos.blocking_push(qd, libos.sga_alloc(b"%d" % i))
                yield w.sim.timeout(10_000)

        w.sim.spawn(producer())
        w.run(until=1_000_000)
        loop.stop()
        assert got == [b"0", b"1", b"2", b"3", b"4"]
        assert loop.dispatches == 5

    def test_an_event_its_callback_removes_fires_once(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        got = []

        def once(result):
            got.append(result.sga.tobytes())
            loop.remove(handle)

        handle = loop.add_pop_event(qd, once)

        def producer():
            for i in range(3):
                yield from libos.blocking_push(qd, libos.sga_alloc(b"%d" % i))
                yield w.sim.timeout(10_000)

        w.sim.spawn(producer())
        w.run(until=1_000_000)
        loop.stop()
        assert got == [b"0"]

    def test_two_queues_dispatch_independently(self):
        w, libos, loop = make_loop()
        q1, q2 = libos.queue(), libos.queue()
        got = []
        loop.add_pop_event(q1, lambda r: got.append(("q1", r.sga.tobytes())))
        loop.add_pop_event(q2, lambda r: got.append(("q2", r.sga.tobytes())))
        w.sim.call_in(1000, lambda: libos.push(q2, libos.sga_alloc(b"b")))
        w.sim.call_in(2000, lambda: libos.push(q1, libos.sga_alloc(b"a")))
        w.run(until=1_000_000)
        loop.stop()
        assert got == [("q2", b"b"), ("q1", b"a")]

    def test_generator_callback_is_driven(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        out_qd = libos.queue()

        def responder(result):
            # A sim-coroutine callback: push a transformed reply.
            yield from libos.blocking_push(
                out_qd, libos.sga_alloc(result.sga.tobytes().upper()))

        loop.add_pop_event(qd, responder)
        w.sim.call_in(100, lambda: libos.push(qd, libos.sga_alloc(b"shout")))

        def collector():
            result = yield from libos.blocking_pop(out_qd)
            return result.sga.tobytes()

        cp = w.sim.spawn(collector())
        w.run(until=1_000_000)
        loop.stop()
        assert cp.value == b"SHOUT"

    def test_remove_stops_dispatch(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        got = []
        handle = loop.add_pop_event(qd, lambda r: got.append(1))
        loop.remove(handle)
        w.sim.call_in(1000, lambda: libos.push(qd, libos.sga_alloc(b"x")))
        w.run(until=1_000_000)
        loop.stop()
        assert got == []


class TestTimers:
    def test_a_timer_its_callback_removes_fires_once(self):
        w, libos, loop = make_loop()
        fired = []

        def once():
            fired.append(w.sim.now)
            loop.remove(handle)

        handle = loop.add_timer(50_000, once)
        w.run(until=1_000_000)
        loop.stop()
        assert len(fired) == 1
        assert fired[0] >= 50_000

    def test_timer_repeats(self):
        w, libos, loop = make_loop()
        fired = []
        loop.add_timer(100_000, lambda: fired.append(w.sim.now))
        w.run(until=1_000_000)
        loop.stop()
        assert len(fired) >= 8

    def test_timer_and_pop_interleave(self):
        w, libos, loop = make_loop()
        qd = libos.queue()
        got = []
        loop.add_timer(30_000, lambda: got.append("timer"))
        loop.add_pop_event(qd, lambda r: got.append("pop"))
        w.sim.call_in(50_000, lambda: libos.push(qd, libos.sga_alloc(b"x")))
        w.run(until=100_000)
        loop.stop()
        assert "timer" in got and "pop" in got

    def test_nonpositive_delay_rejected(self):
        _w, _libos, loop = make_loop()
        with pytest.raises(ValueError):
            loop.add_timer(0, lambda: None)

    def test_remove_timer(self):
        w, libos, loop = make_loop()
        fired = []
        handle = loop.add_timer(50_000, lambda: fired.append(1))
        w.run(until=120_000)
        loop.remove(handle)
        count = len(fired)
        w.run(until=500_000)
        loop.stop()
        assert len(fired) == count


class TestOverNetwork:
    def test_event_loop_serves_network_queue(self):
        """The memcached scenario: callback server over a real connection."""
        w, client, server = make_dpdk_libos_pair()
        loop = DemiEventLoop(server)
        served = []

        def server_main():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 7)
            yield from server.listen(lqd)
            qd = yield from server.accept(lqd)

            def on_request(result):
                if result.error is not None:
                    loop.stop()
                    return
                served.append(result.sga.tobytes())
                yield from server.blocking_push(qd, result.sga)

            loop.add_pop_event(qd, on_request)
            w.sim.spawn(loop.run(), name="srv-loop")

        from repro.apps.echo import demi_echo_client
        w.sim.spawn(server_main())
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2",
                                          [b"m1", b"m2", b"m3"]))
        w.sim.run_until_complete(cp, limit=10**12)
        loop.stop()
        replies, _ = cp.value
        assert replies == [b"m1", b"m2", b"m3"]
        assert served == [b"m1", b"m2", b"m3"]


class TestAcceptAndStop:
    """add_accept_event + stop(): the wake-one server shape end to end."""

    def serve(self, service_ns=0):
        w, client, server = make_dpdk_libos_pair()
        loop = DemiEventLoop(server)
        served = []

        def on_conn(qd):
            def on_request(result):
                if result.error is not None:
                    return
                yield server.core.busy(service_ns)
                served.append(result.sga.tobytes())
                yield from server.blocking_push(qd, result.sga)
            loop.add_pop_event(qd, on_request)

        def server_main():
            lqd = yield from server.socket()
            yield from server.bind(lqd, 7)
            yield from server.listen(lqd)
            loop.add_accept_event(lqd, on_conn)
            return (yield from loop.run())

        sp = w.sim.spawn(server_main(), name="srv")
        return w, client, server, loop, sp, served

    def test_connections_are_served_without_any_timeout(self):
        from repro.apps.echo import demi_echo_client
        w, client, server, loop, sp, served = self.serve()
        procs = [w.sim.spawn(demi_echo_client(client, "10.0.0.2",
                                              [b"a%d" % i, b"b%d" % i]))
                 for i in range(3)]
        for proc in procs:
            w.sim.run_until_complete(proc, limit=10**12)
        loop.stop()
        w.sim.run_until_complete(sp, limit=w.sim.now + 1_000_000)
        assert sorted(served) == sorted(
            m for i in range(3) for m in (b"a%d" % i, b"b%d" % i))
        counters = server.counters
        assert counters.shard_wasted_wakeups == 0
        assert counters.shard_cross_wakeups == 0
        assert not server.tracer.get("server.catnip.wait_timeouts")

    def test_stop_wakes_a_parked_dispatcher_and_leaves_nothing_in_flight(self):
        w, _client, server, loop, sp, _served = self.serve()
        w.run(until=1_000_000)             # idle: parked, nothing to do
        assert sp.alive and server.counters.shard_wakeups == 0
        loop.stop()
        # No timeout is armed anywhere, so only stop() can end it.
        assert w.sim.run_until_complete(sp, limit=w.sim.now + 1_000_000) == 0
        assert not server.tracer.get("server.catnip.wait_timeouts")
        t = server.qtokens
        assert t.in_flight == 0 and t.identity_ok
        assert t.cancelled == 1  # the accept pop

    def test_stop_does_not_abandon_the_request_in_service(self):
        from repro.apps.echo import demi_echo_client
        w, client, _server, loop, sp, served = self.serve(service_ns=50_000)
        cp = w.sim.spawn(demi_echo_client(client, "10.0.0.2", [b"last"]))
        while not loop.dispatches >= 2:     # the accept, then the request
            w.run(until=w.sim.now + 1_000)
        assert served == []                 # mid-service right now
        loop.stop()
        replies, _stats = w.sim.run_until_complete(cp, limit=10**12)
        assert replies == [b"last"] == served
        assert w.sim.run_until_complete(sp, limit=w.sim.now + 1_000_000) == 2

    def test_stop_before_run_is_a_clean_no_op(self):
        w, libos, loop = make_loop()
        loop.stop()
        w.run(until=1_000)
        assert libos.qtokens.in_flight == 0
