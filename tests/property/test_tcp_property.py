"""Property-based tests over the whole TCP stack: stream integrity."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netstack.tcp import (
    ACK,
    CLOSED,
    DEFAULT_MSS,
    DELAYED_ACK_NS,
    ESTABLISHED,
    MAX_SYN_RETRIES,
    MIN_RTO_NS,
    SYN,
    SYN_RCVD,
    SYN_SENT,
    TcpError,
)

from ..conftest import make_net_pair
from .test_faults_property import EXAMPLES, tcp_safe_plans

payload_lists = st.lists(st.binary(min_size=1, max_size=4000),
                         min_size=1, max_size=12)


def open_connection(w, a, b):
    listener = b.stack.tcp_listen(80)
    client = a.stack.tcp_connect("10.0.0.2", 80)
    w.run()
    server = listener.accept_nb()
    assert server is not None
    return client, server


class TestStreamIntegrity:
    @given(payload_lists)
    @settings(max_examples=25, deadline=None)
    def test_sends_concatenate_exactly(self, payloads):
        w, a, b = make_net_pair()
        client, server = open_connection(w, a, b)
        for payload in payloads:
            client.send(payload)
        w.run()
        received = server.recv()
        assert received == b"".join(payloads)

    @given(payload_lists, st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_lossy_link_never_corrupts_stream(self, payloads, seed):
        w, a, b = make_net_pair(drop_rate=0.15, seed=seed)
        client, server = open_connection(w, a, b)
        for payload in payloads:
            client.send(payload)
        w.run()
        collected = bytearray()
        for _ in range(50):
            chunk = server.recv()
            if chunk:
                collected.extend(chunk)
            if len(collected) >= sum(len(p) for p in payloads):
                break
            w.run(until=w.sim.now + 1_000_000)
        assert bytes(collected) == b"".join(payloads)

    @given(payload_lists, payload_lists)
    @settings(max_examples=15, deadline=None)
    def test_duplex_streams_are_independent(self, to_server, to_client):
        w, a, b = make_net_pair()
        client, server = open_connection(w, a, b)
        for payload in to_server:
            client.send(payload)
        for payload in to_client:
            server.send(payload)
        w.run()
        assert server.recv() == b"".join(to_server)
        assert client.recv() == b"".join(to_client)

    @given(st.lists(st.binary(min_size=1, max_size=1000), min_size=1,
                    max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_close_after_sends_delivers_everything_then_eof(self, payloads):
        w, a, b = make_net_pair()
        client, server = open_connection(w, a, b)
        for payload in payloads:
            client.send(payload)
        client.close()
        w.run()
        assert server.recv() == b"".join(payloads)
        assert server.peer_closed


class TestEarlyRetransmit:
    @given(sizes=st.lists(st.integers(1, DEFAULT_MSS), min_size=2,
                          max_size=3),
           dropped=st.integers(0, 2))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_a_short_flight_survives_losing_one_segment(self, sizes,
                                                        dropped):
        # A lost head draws a duplicate ACK from every segment behind it:
        # early retransmit repairs it before the RTO could.  A segment lost
        # behind the head draws none - the first one past it acknowledges
        # the head, whose ACK was being delayed, and only the segments
        # after that one repeat it - so the RTO repairs that loss, as a
        # lost tail.
        dropped %= len(sizes)
        w, a, b = make_net_pair()
        client, server = open_connection(w, a, b)
        lost_seq = client.snd_nxt + sum(sizes[:dropped])
        lost = []
        transmit = a.stack._tcp_transmit

        def lossy(conn, seg):
            if seg.seq == lost_seq and seg.payload and not lost:
                lost.append(seg)
            else:
                transmit(conn, seg)

        a.stack._tcp_transmit = lossy
        payloads = [bytes([65 + i]) * n for i, n in enumerate(sizes)]
        start = w.sim.now
        for payload in payloads:
            client.send(payload)
        assert len(client._inflight) == len(sizes)
        w.run(until=start + MIN_RTO_NS - 1)
        before_rto = server.recv()
        w.run()
        assert before_rto + server.recv() == b"".join(payloads)
        assert len(lost) == 1
        assert w.tracer.get("client.stack.tcp_retransmits") == 1
        early = w.tracer.get("client.stack.tcp_early_retransmits")
        if dropped == 0:
            assert before_rto == b"".join(payloads) and early == 1
        else:
            assert before_rto == b"".join(payloads[:dropped]) and early == 0


#: which transmissions of a handshake segment are lost: any subset of
#: the first send and its ``MAX_SYN_RETRIES`` resends but not all of them
lost_transmissions = st.sets(st.integers(0, MAX_SYN_RETRIES),
                             max_size=MAX_SYN_RETRIES)


class TestHandshakeLoss:
    @given(syn_lost=lost_transmissions, syn_ack_lost=lost_transmissions,
           payload=st.binary(min_size=1, max_size=4000))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    @example(syn_lost=set(range(MAX_SYN_RETRIES)),
             syn_ack_lost=set(range(MAX_SYN_RETRIES)), payload=b"late")
    def test_lost_handshake_segments_establish_or_fail_typed(
            self, syn_lost, syn_ack_lost, payload):
        # Each end may outlast its own retries and still lose the race:
        # a SYN that gets through late can meet a server whose SYN,ACKs
        # then arrive after the client gave up.  Either way the outcome is
        # whole - the connection carries the stream, or it fails with a
        # TcpError - and an established end holds no SYN in its queue.
        w, a, b = make_net_pair()
        listener = b.stack.tcp_listen(80)

        def losing(host, flags, lost):
            transmit, sends = host.stack._tcp_transmit, [0]

            def lossy(conn, seg):
                if conn.state not in (CLOSED, SYN_SENT, SYN_RCVD):
                    assert not [f for _s, _d, f in conn._inflight if f & SYN]
                if seg.flags == flags:
                    sends[0] += 1
                    if sends[0] - 1 in lost:
                        return
                transmit(conn, seg)

            host.stack._tcp_transmit = lossy

        losing(a, SYN, syn_lost)
        losing(b, SYN | ACK, syn_ack_lost)
        client = a.stack.tcp_connect("10.0.0.2", 80)

        def write():
            try:
                yield client.established
            except TcpError:
                return
            client.send(payload)

        w.sim.spawn(write())
        w.run()
        server = listener.accept_nb()
        if client.error is not None:
            assert isinstance(client.error, TcpError)
            assert client.state == CLOSED and server is None
            return
        assert client.state == server.state == ESTABLISHED
        assert server.recv() == payload
        for conn in (client, server):
            assert conn._inflight == [] and not conn._rto_timer.armed


class Watch:
    """Checks one connection's ACK and timer discipline from outside, at
    every segment it takes in or puts out.

    * No in-order byte waits longer than ``DELAYED_ACK_NS`` for a segment
      that acknowledges it (every segment carries ``ACK = rcv_nxt``).
    * While anything is in flight the RTO timer is armed and its event
      sits in the simulator's heap at or before the deadline: the timer
      is running, not merely flagged.
    * A closed connection has none of its three timers armed.
    """

    def __init__(self, w, host, conn):
        self.w, self.conn = w, conn
        self.acked = conn.rcv_nxt
        self.owed_since = None  # arrival of the oldest unacknowledged byte
        self.longest_wait = 0
        on_segment, transmit = conn.on_segment, host.stack._tcp_transmit

        def segment_in(seg):
            on_segment(seg)
            if conn.rcv_nxt > self.acked and self.owed_since is None:
                self.owed_since = w.sim.now
            self.check_timer()

        def segment_out(sender, seg):
            if sender is conn:
                self.acked = seg.ack
                if self.owed_since is not None:
                    self.longest_wait = max(self.longest_wait,
                                            w.sim.now - self.owed_since)
                    self.owed_since = None
            transmit(sender, seg)

        conn.on_segment = segment_in
        host.stack._tcp_transmit = segment_out

    def check_timer(self):
        conn = self.conn
        if conn._inflight and conn.state != CLOSED:
            timer = conn._rto_timer
            assert timer.armed and any(
                event[2] == timer._fire and event[0] <= timer.deadline
                for event in self.w.sim._heap), \
                "data in flight and no retransmission timer running"

    def check_at_rest(self):
        """Call once the simulator has nothing left to do."""
        conn = self.conn
        self.check_timer()
        assert self.longest_wait <= DELAYED_ACK_NS
        if conn.state != CLOSED:
            assert self.owed_since is None, "received bytes never acknowledged"
        else:
            assert not (conn._rto_timer.armed or conn._ack_timer.armed
                        or conn._probe_timer.armed), \
                "a closed connection still owns an armed timer"


class TestAckAndTimerDiscipline:
    @given(payloads=payload_lists,
           gaps_ns=st.lists(st.integers(0, 200_000), min_size=12, max_size=12),
           plan=tcp_safe_plans())
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
    def test_echo_under_any_fault_schedule(self, payloads, gaps_ns, plan):
        # The server echoes, so ACKs ride on data in both directions while
        # the plan drops, duplicates, reorders, corrupts and partitions.
        w, a, b = make_net_pair()
        a.stack.verify_checksums = b.stack.verify_checksums = True
        w.install_faults(plan)
        listener = b.stack.tcp_listen(80)
        client = a.stack.tcp_connect("10.0.0.2", 80)
        watches = [Watch(w, a, client)]
        sent = b"".join(payloads)
        seen = {"server": bytearray(), "client": bytearray()}

        def serve():
            yield listener.accept_signal()
            server = listener.accept_nb()
            watches.append(Watch(w, b, server))
            while len(seen["server"]) < len(sent):
                yield server.recv_signal()
                chunk = server.recv()
                seen["server"] += chunk
                server.send(chunk)
                watches[-1].check_timer()

        def write():
            yield client.established
            for payload, gap in zip(payloads, gaps_ns):
                client.send(payload)
                watches[0].check_timer()
                yield w.sim.timeout(gap)

        def read():
            yield client.established
            while len(seen["client"]) < len(sent):
                yield client.recv_signal()
                seen["client"] += client.recv()

        for proc in (serve(), write(), read()):
            w.sim.spawn(proc)
        w.run()
        assert bytes(seen["server"]) == sent, plan.to_json()
        assert bytes(seen["client"]) == sent, plan.to_json()
        assert len(watches) == 2
        for watch in watches:
            watch.check_at_rest()
