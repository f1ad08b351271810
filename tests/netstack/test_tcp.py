"""TCP integration tests: handshake, transfer, ordering, loss, close."""

import pytest

from repro.apps.echo import demi_echo_client, demi_echo_server
from repro.netstack import tcp
from repro.netstack.tcp import (
    ACK,
    CLOSE_WAIT,
    CLOSED,
    DEFAULT_MSS,
    DELAYED_ACK_NS,
    ESTABLISHED,
    FIN,
    FIN_WAIT_2,
    MAX_RTO_NS,
    MAX_SYN_RETRIES,
    MIN_RTO_NS,
    PSH,
    RST,
    SYN,
    SYN_RCVD,
    TIME_WAIT,
    WINDOW_PROBE_NS,
    TcpConnection,
    TcpError,
    TcpSegment,
)
from repro.testbed import make_posix_libos_pair

from ..conftest import make_net_pair


def connect(w, a, b, port=80):
    """Handshake helper: returns (client_conn, server_conn)."""
    listener = b.stack.tcp_listen(port)
    client = a.stack.tcp_connect("10.0.0.2", port)
    w.run()
    server = listener.accept_nb()
    assert server is not None, "accept queue empty after handshake"
    return client, server


def small_buffers(monkeypatch, nbytes):
    """Every connection opened from here on buffers *nbytes* for its
    reader, so a few writes close its window."""
    monkeypatch.setattr(tcp, "RECV_CAPACITY", nbytes)


def tap(w, host, lose=lambda seg: False):
    """Log every TCP segment *host* transmits as ``(sim.now, segment)``;
    one that *lose* accepts is logged and then never reaches the wire."""
    log = []
    transmit = host.stack._tcp_transmit

    def recording(conn, seg):
        log.append((w.sim.now, seg))
        if not lose(seg):
            transmit(conn, seg)

    host.stack._tcp_transmit = recording
    return log


def losing(w, seq, times=1):
    """A *lose* for :func:`tap` taking the first *times* transmissions
    of the data segment at *seq*, and the list of when it took them."""
    lost = []

    def lose(seg):
        if seg.seq == seq and seg.payload and len(lost) < times:
            lost.append(w.sim.now)
            return True
        return False

    return lose, lost


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

    def test_simultaneous_open_completes(self):
        # Each end's SYN reaches the other in SYN-SENT (RFC 9293 3.5):
        # both answer SYN,ACK and both establish without a retransmit.
        w, a, b = make_net_pair()
        from_left, from_right = tap(w, a), tap(w, b)
        left = a.stack.tcp_connect("10.0.0.2", 7000, src_port=6000)
        right = b.stack.tcp_connect("10.0.0.1", 6000, src_port=7000)
        w.run()
        assert left.state == right.state == ESTABLISHED
        for log in (from_left, from_right):
            assert [seg.flags for _at, seg in log] == [SYN, SYN | ACK]
        left.send(b"from the left")
        right.send(b"from the right")
        w.run()
        assert right.recv() == b"from the left"
        assert left.recv() == b"from the right"
        assert w.tracer.get("client.stack.tcp_retransmits") == 0
        assert w.tracer.get("server.stack.tcp_retransmits") == 0

    def test_a_bare_syn_in_syn_sent_answers_syn_ack(self):
        w, a, _b = make_net_pair()
        sent = tap(w, a, lose=lambda seg: True)
        conn = a.stack.tcp_connect("10.0.0.2", 7000, src_port=6000)
        conn.on_segment(TcpSegment(7000, 6000, 5000, 0, SYN, 1000, mss=536))
        assert conn.state == SYN_RCVD
        assert (conn.rcv_nxt, conn.peer_window, conn.mss) == (5001, 1000, 536)
        syn_ack = sent[-1][1]
        assert (syn_ack.flags, syn_ack.seq, syn_ack.ack) \
            == (SYN | ACK, conn.iss, 5001)
        assert conn._rto_timer.armed

    def test_a_lost_third_ack_is_repaired_by_a_challenge_ack(self):
        # The client is established and has nothing to say, so only the
        # server's retransmitted SYN,ACK can draw the ACK it lost.
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80)
        lost = []

        def lose(seg):
            if seg.flags == ACK and not lost:
                lost.append(seg)
                return True
            return False

        tap(w, a, lose)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        server = listener.accept_nb()
        assert len(lost) == 1
        assert client.state == ESTABLISHED
        assert server is not None and server.state == ESTABLISHED
        assert w.tracer.get("server.stack.tcp_retransmits") == 1
        assert w.tracer.get("client.stack.tcp_challenge_acks") == 1

    def test_duplicate_listen_rejected(self):
        w, _a, b = make_net_pair()
        b.stack.tcp_listen(80)
        with pytest.raises(ValueError):
            b.stack.tcp_listen(80)


#: when each RTO of a handshake fires, from the first send: the timer
#: starts at ``MIN_RTO_NS`` and doubles, up to ``MAX_RTO_NS``
HANDSHAKE_RTOS = [sum(min(MAX_RTO_NS, MIN_RTO_NS << i) for i in range(n + 1))
                  for n in range(MAX_SYN_RETRIES + 1)]


class TestHandshakeRetransmission:
    """The SYN and the SYN,ACK wait in the retransmission queue as data
    does, and the one RTO path resends them: ``MAX_SYN_RETRIES`` times,
    then the connection fails."""

    @pytest.mark.parametrize("side,flags,reason", [
        ("client", SYN, "connection timed out (SYN)"),
        ("server", SYN | ACK, "connection timed out (SYN-ACK)"),
    ], ids=["syn", "syn-ack"])
    def test_a_handshake_segment_never_answered_times_out(
            self, monkeypatch, side, flags, reason):
        w, a, b = make_net_pair()
        failures = []
        fail = TcpConnection._fail

        def recording_fail(conn, err):
            failures.append((w.sim.now, conn, str(err)))
            fail(conn, err)

        monkeypatch.setattr(TcpConnection, "_fail", recording_fail)
        host = a if side == "client" else b
        sent = tap(w, host, lose=lambda seg: bool(seg.flags & SYN))
        b.stack.tcp_listen(80)
        a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        handshake = [(at, seg) for at, seg in sent if seg.flags & SYN]
        assert [seg.flags for _at, seg in handshake] \
            == [flags] * (MAX_SYN_RETRIES + 1)
        first = handshake[0][0]
        assert [at - first for at, _seg in handshake] \
            == [0] + HANDSHAKE_RTOS[:-1]
        [(at, conn, why)] = [f for f in failures if f[1].stack is host.stack]
        assert (at - first, why) == (HANDSHAKE_RTOS[-1], reason)
        assert isinstance(conn.error, TcpError) and conn.state == CLOSED
        # Every resend is the first send again: the ISS and the MSS option.
        assert {(seg.seq, seg.mss) for _at, seg in handshake} \
            == {(conn.iss, DEFAULT_MSS)}
        assert w.tracer.get("%s.stack.tcp_retransmits" % side) \
            == MAX_SYN_RETRIES

    @pytest.mark.parametrize("lost", [0, SYN, SYN | ACK],
                             ids=["none", "syn", "syn-ack"])
    def test_an_established_connection_queues_nothing(self, lost):
        w, a, b = make_net_pair()
        dropped = []

        def lose_first(seg):
            if seg.flags == lost and not dropped:
                dropped.append(seg)
                return True
            return False

        sender = b if lost == SYN | ACK else a
        tap(w, sender, lose_first)
        client, server = connect(w, a, b)
        assert len(dropped) == bool(lost)
        for conn in (client, server):
            assert conn.state == ESTABLISHED
            assert conn._inflight == [] and not conn._rto_timer.armed
        # RFC 5681 3.1: if the SYN or SYN,ACK is lost, the initial window
        # used after a correctly transmitted SYN MUST be one segment.  It
        # used to stay IW10 whatever the handshake cost.
        conn = server if sender is b else client
        if lost:
            assert (conn.cwnd, conn.ssthresh, conn.cwnd_reductions) \
                == (conn.mss, 2 * conn.mss, 1)
        else:
            assert (conn.cwnd, conn.cwnd_reductions) == (10 * conn.mss, 0)

    def test_duplicate_acks_in_syn_received_resend_nothing(self):
        # A queued SYN,ACK is resent by the RTO alone: duplicate ACKs
        # count only on a synchronised connection.
        w, a, _b = make_net_pair()
        sent = tap(w, a, lose=lambda seg: True)
        conn = a.stack.tcp_connect("10.0.0.2", 7000, src_port=6000)
        conn.on_segment(TcpSegment(7000, 6000, 5000, 0, SYN, 1000))
        for _ in range(3):
            conn.on_segment(TcpSegment(7000, 6000, 5001, conn.iss, ACK,
                                       1000))
        assert conn.state == SYN_RCVD
        assert conn._inflight == [(conn.iss, b"", SYN | ACK)]
        assert [seg.flags for _at, seg in sent] == [SYN, SYN | ACK]
        assert w.tracer.get("client.stack.tcp_retransmits") == 0


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
    def test_receiver_window_limits_sender(self, monkeypatch):
        small_buffers(monkeypatch, 2000)
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80)
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

    def test_zero_window_recovers_via_updates(self, monkeypatch):
        small_buffers(monkeypatch, 1000)
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80)
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

    def test_a_closed_window_is_probed_by_one_timer(self, monkeypatch):
        # RFC 9293 3.8.6.1 has one persist timer.  Every write against the
        # closed window, and every ACK that left it closed, used to start
        # another self-re-arming probe chain: four of them here.
        small_buffers(monkeypatch, 2000)
        w, a, b = make_net_pair()
        client, _server = connect(w, a, b)
        start = w.sim.now
        for i in range(5):
            w.sim.call_in(10_000 * i, client.send, b"x" * 1000)
        w.run(until=start + 10 * WINDOW_PROBE_NS + 50_000)
        assert len(client._send_queue) == 3000
        assert w.tracer.get("client.stack.tcp_window_probes") == 10
        assert sum(1 for event in w.sim._heap
                   if event[2] == client._probe_timer._fire) == 1

    def test_a_512_kib_posix_echo_comes_back_whole(self):
        # A read of more than 64 KiB out of the full 256 KiB buffer leaves
        # a window of 65 535 (the 16-bit clamp), not the bytes it took;
        # it is announced because it moves the right edge the sender is
        # held at (RFC 9293 3.8.6.2.2).
        w, client, server = make_posix_libos_pair()
        element = bytes(range(256)) * 2048
        w.sim.spawn(demi_echo_server(server, max_requests=1,
                                     idle_timeout_ns=20_000_000))
        proc = w.sim.spawn(demi_echo_client(client, "10.0.0.2", [element]))
        replies, _stats = w.sim.run_until_complete(proc, limit=100_000_000)
        assert replies == [element]


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
        assert len(a.stack._tcp_conns) == 0
        assert len(b.stack._tcp_conns) == 0

    def test_a_closed_connection_owns_no_armed_timer(self, monkeypatch):
        small_buffers(monkeypatch, 1000)
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"x" * 3000)  # the window closes: RTO, then probes
        w.run(until=w.sim.now + 10_000)
        server.send(b"y")  # and the client owes an ACK
        w.run(until=w.sim.now + 10_000)
        timers = (client._rto_timer, client._ack_timer, client._probe_timer)
        assert [timer.armed for timer in timers] == [False, True, True]
        client.abort()
        assert not any(timer.armed for timer in timers)
        sent = tap(w, a)
        w.run()
        assert sent == []

        # The graceful way in: a connect abandoned before the SYN-ACK.
        pending = a.stack.tcp_connect("10.0.0.9", 80)
        assert pending._rto_timer.armed
        pending.close()
        assert pending.state == CLOSED and not pending._rto_timer.armed


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

    def test_a_fast_retransmitted_segment_gives_no_rtt_sample(self):
        # Karn's rule: the ACK that ends a recovery cannot say which
        # transmission it answers, so the probe timing the head is dropped
        # on a fast retransmit as it is on an RTO.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        client.send(b"warm up")
        w.run()
        estimate = (client._srtt, client._rttvar, client._rto)
        samples = []
        sample = client._rtt_sample
        client._rtt_sample = lambda rtt: (samples.append(rtt), sample(rtt))
        tap(w, a, losing(w, client.snd_nxt)[0])
        for i in range(5):
            client.send(b"%d" % i * 100)
        w.run()
        assert server.recv() == b"warm up" + b"".join(
            b"%d" % i * 100 for i in range(5))
        assert w.tracer.get("client.stack.tcp_fast_retransmits") == 1
        assert samples == []
        assert (client._srtt, client._rttvar, client._rto) == estimate


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


class TestRtoUnderContinuousSending:
    def test_a_sender_that_keeps_sending_still_times_out(self):
        # RFC 6298 5.1: sending starts the retransmission timer only if
        # it is not running.  Restarting it on every send meant that a
        # sender writing every 30 us (under the 100 us RTO) never timed
        # out while it had something new to say: a head segment whose
        # fast retransmit was lost too waited until 100 us after the
        # *last* write.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        head = client.snd_nxt
        lost = []

        def lose(seg):
            if seg.seq == head and seg.payload and len(lost) < 2:
                lost.append(w.sim.now)  # the original, then the fast rexmit
                return True
            return False

        sent = tap(w, a, lose)
        start = w.sim.now
        chunks = [b"%02d" % i * 10 for i in range(34)]
        for i, chunk in enumerate(chunks):
            w.sim.call_in(30_000 * i, client.send, chunk)
        last_write = start + 30_000 * (len(chunks) - 1)
        w.run()

        head_sent = [at for at, seg in sent if seg.seq == head and seg.payload]
        original, fast_rexmit, timeout = head_sent[:3]
        assert [original, fast_rexmit] == lost
        assert w.tracer.get("client.stack.tcp_fast_retransmits") == 1
        assert timeout <= fast_rexmit + MIN_RTO_NS + 10_000  # RTT: ~4 us
        assert timeout < last_write, "timed out only once the sender paused"
        assert w.tracer.get("client.stack.tcp_retransmits") == len(head_sent) - 1
        assert server.recv() == b"".join(chunks)

        # Everything is acknowledged: the timer is stopped, and a later
        # send starts it afresh - a full RTO from that send.
        assert client.snd_una == client.snd_nxt and not client._inflight
        assert not client._rto_timer.armed
        w.run(until=w.sim.now + 500_000)
        head, rto = client.snd_nxt, client._rto
        del lost[:1]  # lose one more transmission of the (new) head
        client.send(b"again")
        assert client._rto_timer.armed
        w.run()
        again = [at for at, seg in sent if seg.seq == head and seg.payload]
        assert again == [lost[-1], lost[-1] + rto]
        assert server.recv() == b"again"
        assert not client._rto_timer.armed


def receiver():
    """An established server connection to hand segments to with
    :func:`inject`: ``(world, connection, log)``.  What it answers is
    logged but never delivered, so nothing but the rule under test is on
    the wire."""
    w, a, b = make_net_pair()
    _client, server = connect(w, a, b)
    return w, server, tap(w, b, lose=lambda seg: True)


def inject(conn, offset, payload=b"", flags=PSH | ACK):
    """Hand *conn* a segment from its peer starting *offset* bytes past
    what it has received so far."""
    conn.on_segment(TcpSegment(conn.remote[1], conn.local[1],
                               conn.rcv_nxt + offset, conn.snd_nxt, flags,
                               65535, payload))


def summary(sent, base):
    """``(when, flags, bytes acknowledged past *base*, payload length)``
    of every logged segment."""
    return [(at, seg.flags, seg.ack - base, len(seg.payload))
            for at, seg in sent]


class TestDelayedAck:
    """RFC 9293 3.8.6.3 / RFC 5681 4.2, one test per rule."""

    def test_lone_segment_is_acked_once_when_the_delay_runs_out(self):
        w, server, sent = receiver()
        arrived, base = w.sim.now, server.rcv_nxt
        inject(server, 0, b"request")
        w.run(until=arrived + DELAYED_ACK_NS - 1)
        assert sent == []
        w.run()
        assert summary(sent, base) == [
            (arrived + DELAYED_ACK_NS, ACK, 7, 0)]
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 1

    def test_the_timer_is_one_event_that_follows_the_oldest_debt(self):
        # A reply pays the first debt; the event armed for it then sleeps
        # on to the second debt's deadline instead of a second event.
        w, server, sent = receiver()
        first, base = w.sim.now, server.rcv_nxt
        inject(server, 0, b"one")
        server.send(b"reply")
        w.run(until=first + 15_000)
        second = w.sim.now
        inject(server, 0, b"two")
        inject(server, 0, b"three")  # younger: does not move the deadline
        assert sum(1 for event in w.sim._heap
                   if event[2] == server._ack_timer._fire) == 1
        w.run(until=second + DELAYED_ACK_NS)
        assert summary(sent, base) == [
            (first, PSH | ACK, 3, 5), (second + DELAYED_ACK_NS, ACK, 11, 0)]
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 1

    def test_a_reply_inside_the_delay_carries_the_ack(self):
        # Five closed-loop rounds on a real pair: ten data segments, each
        # acknowledging the one before, and the only pure ACK is the
        # client's for the last reply.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        from_client, from_server = tap(w, a), tap(w, b)

        def serve():
            for _ in range(5):
                yield server.recv_signal()
                server.send(b"reply to " + server.recv())

        def drive():
            for i in range(5):
                client.send(b"request %d" % i)
                yield client.recv_signal()
                assert client.recv() == b"reply to request %d" % i

        w.sim.spawn(serve())
        w.sim.spawn(drive())
        w.run()
        assert [seg.flags for _at, seg in from_server] == [PSH | ACK] * 5
        assert [seg.flags for _at, seg in from_client] \
            == [PSH | ACK] * 5 + [ACK]
        for (_at, request), (_at2, reply) in zip(from_client, from_server):
            assert reply.ack == request.seq + len(request.payload)
        assert w.tracer.get("client.stack.tcp_delayed_acks") == 1
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 0

    def test_two_full_segments_are_acked_with_the_second(self):
        w, server, sent = receiver()
        base, mss = server.rcv_nxt, server.mss
        inject(server, 0, b"x" * mss)
        assert sent == []
        w.run(until=w.sim.now + 1_000)
        inject(server, 0, b"y" * mss)
        assert summary(sent, base) == [(w.sim.now, ACK, 2 * mss, 0)]
        w.run()
        assert len(sent) == 1
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 0

    @pytest.mark.parametrize("before,segment,acked", [
        pytest.param([], (100, b"late", PSH | ACK), 0, id="out-of-order"),
        pytest.param([(0, b"0123456789", PSH | ACK)],
                     (-10, b"0123456789", PSH | ACK), 10, id="duplicate"),
        pytest.param([(10, b"second", PSH | ACK)],
                     (0, b"first ten.", PSH | ACK), 16, id="fills-the-gap"),
        pytest.param([(10, b"b" * 10, PSH | ACK), (30, b"d" * 10, PSH | ACK)],
                     (0, b"a" * 10, PSH | ACK), 20,
                     id="fills-part-of-the-gap"),
        pytest.param([], (0, b"", FIN | ACK), 1, id="fin"),
        pytest.param([], (0, b"bye", FIN | PSH | ACK), 4, id="data-with-fin"),
    ])
    def test_answered_at_once(self, before, segment, acked):
        w, server, sent = receiver()
        base = server.rcv_nxt
        for offset, payload, flags in before:
            inject(server, offset, payload, flags)
        del sent[:]
        offset, payload, flags = segment
        inject(server, offset, payload, flags)
        assert summary(sent, base) == [(w.sim.now, ACK, acked, 0)]
        w.run(until=w.sim.now + 2 * DELAYED_ACK_NS)
        assert len(sent) == 1  # the debt is paid: the timer finds nothing
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 0

    def test_recv_reopening_a_closed_window_says_so_at_once(self,
                                                            monkeypatch):
        small_buffers(monkeypatch, 1000)
        w, server, sent = receiver()
        base = server.rcv_nxt
        inject(server, 0, b"f" * 1000)
        assert sent == [] and server.recv_window == 0
        w.run(until=w.sim.now + 5_000)
        assert len(server.recv()) == 1000
        assert summary(sent, base) == [(w.sim.now, ACK, 1000, 0)]
        assert sent[0][1].window == 1000
        w.run()
        assert len(sent) == 1

    @pytest.mark.parametrize("end", ["aborted", "reset-by-peer"])
    def test_a_dead_connection_pays_no_debt(self, end):
        w, server, sent = receiver()
        inject(server, 0, b"never acknowledged")
        if end == "aborted":
            server.abort()
            assert [seg.flags for _at, seg in sent] == [RST | ACK]
        else:
            inject(server, 0, flags=RST)
        assert server.state == CLOSED
        del sent[:]
        w.run()
        assert sent == []
        assert w.tracer.get("server.stack.tcp_delayed_acks") == 0


class TestReset:
    """RFC 9293 3.10.7.4 / RFC 5961 3: where a RST's sequence number lies
    decides what it does."""

    def test_rst_at_rcv_nxt_resets(self):
        w, server, sent = receiver()
        inject(server, 0, flags=RST)
        assert server.state == CLOSED and server.error is not None
        assert sent == []
        assert w.tracer.get("server.stack.tcp_rsts_accepted") == 1

    def test_rst_elsewhere_in_the_window_draws_a_challenge_ack(self):
        w, server, sent = receiver()
        for offset in (1, server.recv_window - 1):
            inject(server, offset, flags=RST)
        assert server.state == ESTABLISHED and server.error is None
        assert [(seg.flags, seg.seq, seg.ack) for _at, seg in sent] \
            == [(ACK, server.snd_nxt, server.rcv_nxt)] * 2
        assert w.tracer.get("server.stack.tcp_challenge_acks") == 2
        assert w.tracer.get("server.stack.tcp_rsts_accepted") == 0

    def test_a_syn_on_a_synchronised_connection_draws_a_challenge_ack(self):
        # RFC 5961 4: wherever its sequence number lies.  A peer that
        # restarted answers the ACK with a RST at exactly RCV.NXT.
        w, server, sent = receiver()
        for offset in (0, 1, -5000, 2**20):
            inject(server, offset, flags=SYN)
        inject(server, 0, flags=SYN | ACK)
        assert server.state == ESTABLISHED and server.error is None
        assert [(seg.flags, seg.seq, seg.ack) for _at, seg in sent] \
            == [(ACK, server.snd_nxt, server.rcv_nxt)] * 5
        assert w.tracer.get("server.stack.tcp_challenge_acks") == 5

    def test_rst_outside_the_window_is_dropped(self):
        w, server, sent = receiver()
        for offset in (-1, -5000, server.recv_window, 2**20):
            inject(server, offset, flags=RST)
        assert server.state == ESTABLISHED and server.error is None
        assert sent == []
        assert w.tracer.get("server.stack.tcp_rst_drops") == 4

    def test_rst_before_the_handshake_must_acknowledge_the_syn(self):
        w, a, b = make_net_pair()
        sent = tap(w, a, lose=lambda seg: True)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        client.on_segment(TcpSegment(80, client.local[1], 0, client.iss,
                                     RST | ACK, 0))  # acks nothing of ours
        assert client.error is None
        assert w.tracer.get("client.stack.tcp_rst_drops") == 1
        client.on_segment(TcpSegment(80, client.local[1], 0, client.snd_nxt,
                                     RST | ACK, 0))
        assert client.state == CLOSED and client.error is not None
        assert len(sent) == 1  # the SYN: a RST is never answered

    def test_a_duplicated_old_rst_no_longer_kills_a_healthy_connection(self):
        # Any RST used to reset, so a fault plan that duplicated or delayed
        # one from before the connection moved on killed it.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        old_rst = TcpSegment(client.local[1], 80, server.rcv_nxt,
                             server.snd_nxt, RST | ACK, 0)
        client.send(b"the connection moves on")
        w.run()
        assert server.recv() == b"the connection moves on"
        server.on_segment(old_rst)
        assert server.state == ESTABLISHED and server.error is None
        assert w.tracer.get("server.stack.tcp_rst_drops") == 1
        server.send(b"still here")
        client.send(b"so am I")
        w.run()
        assert client.recv() == b"still here"
        assert server.recv() == b"so am I"

    def test_abort_behind_lost_data_still_resets_the_peer(self):
        # The RST sits past the hole the lost segment left, so it only
        # draws a challenge ACK; that ACK finds no connection and the
        # stack's answer to it is a RST at exactly RCV.NXT.
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        tap(w, a, lose=lambda seg: bool(seg.payload))
        client.send(b"lost on the way")
        client.abort()
        w.run()
        assert w.tracer.get("server.stack.tcp_challenge_acks") == 1
        assert w.tracer.get("client.stack.tcp_rst_sent") == 1
        assert w.tracer.get("server.stack.tcp_rsts_accepted") == 1
        assert server.state == CLOSED and server.error is not None


def peer_ack(conn, window=65535):
    """Hand *conn* a payload-less ACK of exactly ``snd_una`` from its
    peer: a duplicate ACK if *window* is the one it last advertised."""
    conn.on_segment(TcpSegment(conn.remote[1], conn.local[1], conn.rcv_nxt,
                               conn.snd_una, ACK, window))


class TestEarlyRetransmit:
    """RFC 5827 2.1: with two or three segments outstanding and nothing
    new to send, one fewer duplicate ACKs than segments repairs the
    head.  The injected tests hand a sender whose output is lost the ACKs
    its peer would send."""

    def test_a_lost_head_of_two_is_resent_on_the_first_duplicate_ack(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        head = client.snd_nxt
        sent = tap(w, a, losing(w, head)[0])
        start = w.sim.now
        client.send(b"a" * 100)
        client.send(b"b" * 100)
        w.run(until=start + MIN_RTO_NS // 2)
        assert server.recv() == b"a" * 100 + b"b" * 100
        assert [at for at, seg in sent if seg.seq == head][0] == start
        assert w.tracer.get("client.stack.tcp_early_retransmits") == 1
        assert w.tracer.get("client.stack.tcp_fast_retransmits") == 1
        assert w.tracer.get("client.stack.tcp_retransmits") == 1

    @pytest.mark.parametrize("segments,then,threshold", [
        pytest.param(2, None, 1, id="two-out"),
        pytest.param(3, None, 2, id="three-out"),
        pytest.param(4, None, 3, id="four-out"),
        pytest.param(2, "nagle", 3, id="two-out-more-sendable"),
        pytest.param(2, "window", 1, id="two-out-more-held-by-window"),
        pytest.param(2, "cwnd", 1, id="two-out-more-held-by-cwnd"),
    ])
    def test_threshold(self, segments, then, threshold):
        w, conn, sent = receiver()
        window = 65535
        for i in range(segments):
            conn.send(b"%d" % i * 100)
        if then == "nagle":
            conn.nodelay = False  # holds a sub-MSS write, window open
        elif then == "window":
            window = conn.snd_nxt - conn.snd_una
            peer_ack(conn, window)  # a window update, no duplicate
        elif then == "cwnd":
            conn.cwnd = conn.snd_nxt - conn.snd_una
        if then:
            conn.send(b"queued")
            assert conn._send_queue
        for n in range(1, 5):
            peer_ack(conn, window)
            assert w.tracer.get("server.stack.tcp_retransmits") \
                == (n >= threshold), n
        assert w.tracer.get("server.stack.tcp_fast_retransmits") == 1
        assert w.tracer.get("server.stack.tcp_early_retransmits") \
            == (threshold < 3)

    def test_once_per_run_of_duplicate_acks(self):
        # A flight that grows behind the lost head would meet the early
        # threshold again at every ACK; only an ACK of new data ends the
        # run and lets the next one repair.
        w, conn, sent = receiver()
        conn.send(b"a" * 100)
        conn.send(b"b" * 100)
        peer_ack(conn)
        conn.send(b"c" * 100)
        peer_ack(conn)
        conn.send(b"d" * 100)
        peer_ack(conn)
        peer_ack(conn)
        assert w.tracer.get("server.stack.tcp_retransmits") == 1
        conn.on_segment(TcpSegment(conn.remote[1], conn.local[1],
                                   conn.rcv_nxt, conn.snd_una + 200, ACK,
                                   65535))
        peer_ack(conn)
        assert w.tracer.get("server.stack.tcp_retransmits") == 2
        assert sent[-1][1].payload == b"c" * 100
        assert w.tracer.get("server.stack.tcp_early_retransmits") == 2

    @pytest.mark.parametrize("windows,flags", [
        pytest.param((30_000, 40_000, 50_000), ACK, id="window-update"),
        pytest.param((65535,) * 3, FIN | ACK, id="fin"),
    ])
    def test_only_a_duplicate_ack_counts(self, windows, flags):
        # RFC 5681 2: a duplicate ACK carries no data, SYN or FIN and
        # leaves the advertised window as it was.  A receiver reopening
        # its window (``recv()`` after it closed) would otherwise fake
        # one, and at these thresholds one is enough to retransmit.
        w, conn, sent = receiver()
        conn.send(b"a" * 100)
        conn.send(b"b" * 100)
        seq = conn.rcv_nxt
        for window in windows:
            conn.on_segment(TcpSegment(conn.remote[1], conn.local[1], seq,
                                       conn.snd_una, flags, window))
        assert conn._dupacks == 0 and conn.peer_window == windows[-1]
        assert w.tracer.get("server.stack.tcp_retransmits") == 0
        peer_ack(conn, windows[-1])
        assert w.tracer.get("server.stack.tcp_early_retransmits") == 1

    def test_a_lost_early_retransmit_falls_back_to_the_rto(self):
        w, a, b = make_net_pair()
        client, server = connect(w, a, b)
        head = client.snd_nxt
        lose, lost = losing(w, head, times=2)  # the original, the early one
        sent = tap(w, a, lose)
        start = w.sim.now
        for chunk in (b"a" * 100, b"b" * 100, b"c" * 100):
            client.send(chunk)
        w.run()
        head_sent = [at for at, seg in sent if seg.seq == head]
        assert head_sent[:2] == lost and head_sent[0] == start
        assert head_sent[1] - start < MIN_RTO_NS // 2
        assert head_sent[2:] == [start + MIN_RTO_NS]  # its timer runs on
        assert w.tracer.get("client.stack.tcp_early_retransmits") == 1
        assert w.tracer.get("client.stack.tcp_fast_retransmits") == 1
        assert w.tracer.get("client.stack.tcp_retransmits") == 2
        assert server.recv() == b"a" * 100 + b"b" * 100 + b"c" * 100
