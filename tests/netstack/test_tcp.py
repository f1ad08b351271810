"""TCP integration tests: handshake, transfer, ordering, loss, close."""

import pytest

from repro.netstack.tcp import (
    ACK,
    CLOSE_WAIT,
    CLOSED,
    ESTABLISHED,
    FIN_WAIT_2,
    TIME_WAIT,
    TcpError,
    TcpSegment,
)

from ..conftest import make_net_pair


def connect(w, a, b, port=80):
    """Handshake helper: returns (client_conn, server_conn)."""
    listener = b.stack.tcp_listen(port)
    client = a.stack.tcp_connect("10.0.0.2", port)
    w.run()
    server = listener.accept_nb()
    assert server is not None, "accept queue empty after handshake"
    return client, server


class TestHandshake:
    def test_three_way_handshake_establishes_both_ends(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        assert client.state == ESTABLISHED
        assert server.state == ESTABLISHED
        assert client.established.triggered
        assert server.established.triggered

    def test_mss_negotiated_to_minimum(self):
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        client.mss = 500  # before SYN would normally apply; set via connect path
        w.run()
        server = listener.accept_nb()
        assert server.mss <= 1460

    def test_connect_to_closed_port_resets(self):
        w, a, b = make_net_pair()
        client = a.stack.tcp_connect("10.0.0.2", 81)
        w.run()
        assert client.error is not None
        assert client.state == CLOSED
        assert w.tracer.get("server.stack.tcp_rst_sent") == 1

    def test_syn_lost_is_retransmitted(self):
        w, a, b = make_net_pair(drop_rate=0.4, seed=3)
        listener = b.stack.tcp_listen(80)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        # Eventually establishes despite drops.
        assert client.state == ESTABLISHED

    def test_duplicate_listen_rejected(self):
        w, _a, b = make_net_pair()
        b.stack.tcp_listen(80)
        with pytest.raises(ValueError):
            b.stack.tcp_listen(80)


class TestTransfer:
    def test_small_send_arrives_in_order(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"hello tcp")
        w.run()
        assert server.recv() == b"hello tcp"

    def test_bidirectional_transfer(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"ping")
        w.run()
        assert server.recv() == b"ping"
        server.send(b"pong")
        w.run()
        assert client.recv() == b"pong"

    def test_large_transfer_segments_at_mss(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        payload = bytes(range(256)) * 100  # 25600 bytes > MSS
        client.send(payload)
        w.run()
        received = server.recv()
        assert received == payload
        assert w.tracer.get("client.stack.tcp_segments_tx") > len(payload) // 1460

    def test_multiple_sends_coalesce_into_stream(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        for chunk in (b"a", b"bb", b"ccc"):
            client.send(chunk)
        w.run()
        assert server.recv() == b"abbccc"

    def test_recv_respects_max_bytes(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"0123456789")
        w.run()
        assert server.recv(4) == b"0123"
        assert server.recv(100) == b"456789"

    def test_recv_signal_fires_on_data(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        seen = []

        def waiter():
            yield server.recv_signal()
            seen.append(server.recv())

        w.sim.spawn(waiter())
        w.sim.call_in(10_000, client.send, b"later")
        w.run()
        assert seen == [b"later"]

    def test_transfer_survives_heavy_loss(self):
        w, a, b = make_net_pair(drop_rate=0.25, seed=11)
        client, server = connect(w, a, b)
        payload = b"L" * 40000
        client.send(payload)
        w.run()
        assert server.recv() == payload
        assert w.tracer.get("client.stack.tcp_retransmits") > 0

    def test_send_on_unestablished_connection_rejected(self):
        w, a, b = make_net_pair()
        b.stack.tcp_listen(80)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        with pytest.raises(TcpError):
            client.send(b"too early")


class TestFlowControl:
    def test_receiver_window_limits_sender(self):
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80, recv_capacity=2000)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        server = listener.accept_nb()
        payload = b"W" * 10000
        received = []

        def slow_consumer():
            while sum(len(c) for c in received) < len(payload):
                yield server.recv_signal()
                chunk = server.recv(500)
                if chunk:
                    received.append(chunk)
                yield w.sim.timeout(50_000)  # slow application drain

        w.sim.spawn(slow_consumer())
        client.send(payload)
        w.run()
        assert b"".join(received) == payload
        # The sender never overran what the receiver advertised.
        assert w.tracer.get("server.stack.tcp_window_overrun_trimmed") == 0

    def test_zero_window_recovers_via_updates(self):
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80, recv_capacity=1000)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        server = listener.accept_nb()
        client.send(b"Z" * 5000)
        # Bounded run (an unconsumed zero-window connection probes forever).
        w.run(until=w.sim.now + 2_000_000)
        # Stalled: receiver full, sender queue non-empty, probing.
        assert server.readable_bytes <= 1000
        assert len(client._send_queue) > 0
        assert w.tracer.get("client.stack.tcp_window_probes") > 0

        collected = []

        def drain():
            while sum(len(c) for c in collected) < 5000:
                yield server.recv_signal()
                chunk = server.recv()
                if chunk:
                    collected.append(chunk)
                yield w.sim.timeout(10_000)

        w.sim.spawn(drain())
        w.run()
        assert b"".join(collected) == b"Z" * 5000


class TestClose:
    def test_graceful_close_both_directions(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.close()
        w.run()
        assert server.peer_closed
        assert server.state == CLOSE_WAIT
        assert client.state == FIN_WAIT_2
        server.close()
        w.run()
        assert server.state == CLOSED
        assert client.state in (TIME_WAIT, CLOSED)

    def test_close_flushes_pending_data_first(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"final words")
        client.close()
        w.run()
        assert server.recv() == b"final words"
        assert server.peer_closed

    def test_send_after_close_rejected(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.close()
        with pytest.raises(TcpError):
            client.send(b"zombie")

    def test_abort_resets_peer(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.abort()
        w.run()
        assert server.error is not None
        assert server.state == CLOSED

    def test_connection_table_cleaned_up(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.close()
        w.run()
        server.close()
        w.run()
        # TIME_WAIT expiry happens in sim time; run covers it.
        assert a.stack.tcp_connection_count == 0
        assert b.stack.tcp_connection_count == 0


class TestRtt:
    def test_rto_adapts_to_measured_rtt(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"sample")
        w.run()
        # A few microseconds RTT -> RTO should sit at the floor, far below max.
        assert client._srtt is not None
        assert client._srtt < 100_000
        assert client._rto >= client._srtt


class TestAckOfUnsentData:
    def test_ack_beyond_snd_nxt_is_answered_and_dropped(self):
        # RFC 9293 3.10.7.4: SEG.ACK > SND.NXT acknowledges data never
        # sent - send an ACK, drop the segment, change nothing.  Taking
        # it used to move snd_una past snd_nxt and empty the retransmit
        # queue, so a lost segment under it was never sent again.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"x" * 100)          # in flight: not yet at the server
        before = (client.snd_una, client.snd_nxt, list(client._inflight),
                  client.peer_window, client.rcv_nxt)
        acks_sent = w.tracer.get("client.stack.tcp_segments_tx")
        client.on_segment(TcpSegment(80, client.local[1], client.rcv_nxt,
                                     client.snd_nxt + 5000, ACK, 1,
                                     payload=b"dropped with its ack"))
        assert (client.snd_una, client.snd_nxt, list(client._inflight),
                client.peer_window, client.rcv_nxt) == before
        assert w.tracer.get("client.stack.tcp_segments_tx") == acks_sent + 1
        assert w.tracer.get("client.stack.tcp_unsent_ack_drops") == 1
        w.run()
        assert server.recv() == b"x" * 100
        assert client.recv() == b""
        assert client.snd_una == client.snd_nxt and not client._inflight
