"""Tests for Nagle's algorithm / TCP_NODELAY."""

from repro.netstack.tcp import DELAYED_ACK_NS

from ..conftest import make_net_pair


def connect(w, a, b, port=80):
    listener = b.stack.tcp_listen(port)
    client = a.stack.tcp_connect("10.0.0.2", port)
    w.run()
    return client, listener.accept_nb()


class TestNagle:
    def test_nodelay_default_sends_small_segments_immediately(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        before = w.tracer.get("client.stack.tcp_segments_tx")
        client.send(b"a")
        client.send(b"b")
        # Both tiny segments leave without waiting for acks.
        w.run(until=w.sim.now + 2_000)
        sent = w.tracer.get("client.stack.tcp_segments_tx") - before
        assert sent == 2
        w.run()
        assert server.recv() == b"ab"

    def test_nagle_holds_second_small_segment(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.nodelay = False
        before = w.tracer.get("client.stack.tcp_segments_tx")
        client.send(b"a")
        client.send(b"b")
        w.run(until=w.sim.now + 2_000)
        sent = w.tracer.get("client.stack.tcp_segments_tx") - before
        assert sent == 1  # the second byte is nagled
        assert w.tracer.get("client.stack.tcp_nagle_delays") >= 1
        # The ack for "a" releases "b"; everything still arrives.
        w.run()
        assert server.recv() == b"ab"

    def test_nagle_sends_full_mss_immediately(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.nodelay = False
        before = w.tracer.get("client.stack.tcp_segments_tx")
        client.send(b"x" * client.mss)
        client.send(b"y" * client.mss)
        w.run(until=w.sim.now + 3_000)
        sent = w.tracer.get("client.stack.tcp_segments_tx") - before
        assert sent == 2  # full segments are never delayed
        w.run()
        assert server.recv() == b"x" * client.mss + b"y" * client.mss

    def test_nagle_does_not_block_fin(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.nodelay = False
        client.send(b"last")
        client.close()
        w.run()
        assert server.recv() == b"last"
        assert server.peer_closed

    def test_nagle_increases_small_write_latency(self):
        def two_write_latency(nodelay):
            w, a, b = make_net_pair()
            client, server = connect(w, a, b)
            client.nodelay = nodelay
            start = w.sim.now
            client.send(b"a")
            client.send(b"b")
            done = {}

            def waiter():
                got = b""
                while len(got) < 2:
                    chunk = server.recv()
                    if chunk:
                        got += chunk
                        continue
                    yield server.recv_signal()
                done["at"] = w.sim.now

            w.sim.spawn(waiter())
            w.run()
            return done["at"] - start

        assert two_write_latency(False) > two_write_latency(True)


class TestNagleMeetsDelayedAck:
    """The write-write-read stall: Nagle holds the second small write for
    an ACK that the receiver, with nothing to reply to yet, delays."""

    @staticmethod
    def write_write_read(nodelay):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.nodelay = nodelay
        request = (b"header", b"body")
        done = {}

        def serve():
            got = b""
            while len(got) < len(b"".join(request)):
                yield server.recv_signal()
                got += server.recv()
            server.send(b"reply")

        def drive():
            start = w.sim.now
            for part in request:
                client.send(part)
            yield client.recv_signal()
            assert client.recv() == b"reply"
            done["ns"] = w.sim.now - start

        w.sim.spawn(serve())
        w.sim.spawn(drive())
        w.run()
        return (done["ns"], w.tracer.get("client.stack.tcp_nagle_delays"),
                w.tracer.get("server.stack.tcp_delayed_acks"))

    def test_nagle_stalls_by_the_ack_delay_and_nodelay_does_not(self):
        direct, nagled, delayed = self.write_write_read(nodelay=True)
        assert (nagled, delayed) == (0, 0)
        assert direct < DELAYED_ACK_NS // 4  # one round trip, no timer in it

        stalled, nagled, delayed = self.write_write_read(nodelay=False)
        assert nagled >= 1 and delayed == 1
        # The body waits out the server's ACK delay, then the ACK's own
        # flight and its own: never more than that.
        assert DELAYED_ACK_NS <= stalled - direct <= DELAYED_ACK_NS + direct
