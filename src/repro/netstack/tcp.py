"""TCP (RFC 9293): segments, connection state machine, reliability.

This is a real - if compact - TCP: three-way handshake and simultaneous
open, sequence-number based in-order delivery with out-of-order segment
buffering, cumulative acks with duplicate-ack fast retransmit (after
three, or after one fewer than the segments outstanding when two or
three are and nothing new may be sent: early retransmit, RFC 5827),
delayed acks that ride on the reply (RFC 9293 3.8.6.3, RFC 5681 4.2),
adaptive RTO with RFC 6298's timer management (started by the first
unacknowledged segment, restarted by an ack of new data, never by a
send) and Karn's rule for both kinds of retransmission, challenge acks
for in-window RSTs and for any SYN on a synchronised connection (RFC
5961 3 and 4), receiver flow control with window probes, and the full
close handshake (FIN/ACK both directions, TIME_WAIT).

SYN, SYN,ACK, data and FIN share one retransmission queue: each waits in
it from its first send until it is cumulatively acknowledged, and one
path sends it, first time and every resend alike.  One RTO handler
resends the queue's head, whatever it is; in a simultaneous open the
SYN,ACK replaces the queued SYN.

Congestion control is NewReno-flavoured: slow start from IW10, AIMD in
congestion avoidance, multiplicative decrease on fast retransmit, and a
collapse to one MSS on RTO - a lost SYN or SYN,ACK's too, so such a
connection starts at one segment (RFC 5681 3.1).  Not modelled: SACK,
urgent data, and exotic options (only MSS is sent).

The connection object is transport-only; ``repro.netstack.stack.NetStack``
owns demux and hands segments in/out.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.engine import Timer
from ..sim.sync import WaitQueue
from ..telemetry import names
from .packet import PacketError, internet_checksum, pseudo_header

__all__ = [
    "TcpSegment",
    "TcpConnection",
    "TcpListener",
    "TcpError",
    "tcp_checksum_ok",
    "FIN", "SYN", "RST", "PSH", "ACK",
    "TCP_HEADER_LEN",
    "DEFAULT_MSS",
]

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

TCP_HEADER_LEN = 20
DEFAULT_MSS = 1460

#: ports, seq, ack, data offset, flags, window, checksum, urgent pointer
_HEADER = struct.Struct("!HHIIBBHHH")
_MSS_OPTION = struct.Struct("!BBH")  # kind 2, length 4, MSS

# Simulation-friendly timer constants (ns).  Real stacks use 200ms+ minimum
# RTOs; with microsecond RTTs in the simulated fabric that would only slow
# convergence in simulated time, so we scale them to the RTT regime.
MIN_RTO_NS = 100_000
MAX_RTO_NS = 5_000_000
#: How long an in-order segment may wait for a reply (or the next request)
#: to carry its ACK.  Above the slowest stack's request-to-reply turnaround
#: at default costs (posix: ~21 us on the server, 17-28 us on the client;
#: at 20 us the timer fires just before every posix reply and puts the pure
#: ACK back on the critical path), and below ``MIN_RTO_NS / 2`` so a fully
#: delayed RTT sample keeps ``srtt + 4 rttvar`` near the RTO floor.
DELAYED_ACK_NS = 40_000
TIME_WAIT_NS = 1_000_000
WINDOW_PROBE_NS = 200_000
MAX_SYN_RETRIES = 6
MAX_DATA_RETRIES = 12


class TcpError(Exception):
    """Connection-fatal events surfaced to the caller (reset, timeout)."""


def tcp_checksum_ok(raw: bytes, src_ip: str, dst_ip: str) -> bool:
    """Verify a raw TCP segment's checksum over the IPv4 pseudo-header."""
    if len(raw) < TCP_HEADER_LEN:
        return False
    return internet_checksum(pseudo_header(src_ip, dst_ip, 6, len(raw))
                             + raw) == 0


@dataclass
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss: Optional[int] = None  # MSS option, SYN segments only

    def pack(self, src_ip: str, dst_ip: str) -> bytes:
        payload = self.payload
        if self.mss is None:
            options, header_len = b"", TCP_HEADER_LEN
        else:
            options = _MSS_OPTION.pack(2, 4, self.mss)
            header_len = TCP_HEADER_LEN + _MSS_OPTION.size
        header = _HEADER.pack(self.src_port, self.dst_port,
                              self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
                              (header_len // 4) << 4, self.flags, self.window,
                              0,  # checksum placeholder
                              0)  # urgent pointer
        pseudo = pseudo_header(src_ip, dst_ip, 6, header_len + len(payload))
        csum = internet_checksum(b"".join((pseudo, header, options, payload)))
        return b"".join((header[:16], csum.to_bytes(2, "big"), header[18:],
                         options, payload))

    @classmethod
    def unpack(cls, raw: bytes) -> "TcpSegment":
        return cls.unpack_from(raw, 0, len(raw))

    @classmethod
    def unpack_from(cls, raw: bytes, start: int, end: int) -> "TcpSegment":
        """Parse the segment occupying ``raw[start:end]`` where it lies:
        the payload is the only slice taken (options, if any, the other)."""
        size = end - start
        if size < TCP_HEADER_LEN:
            raise PacketError("TCP segment too short")
        (src_port, dst_port, seq, ack, off_field, flags, window,
         _csum, _urg) = _HEADER.unpack_from(raw, start)
        data_offset = (off_field >> 4) * 4
        if data_offset < TCP_HEADER_LEN or data_offset > size:
            raise PacketError("bad TCP data offset")
        mss = None
        if data_offset > TCP_HEADER_LEN:
            options = raw[start + TCP_HEADER_LEN:start + data_offset]
            i = 0
            while i < len(options):
                kind = options[i]
                if kind == 0:
                    break
                if kind == 1:
                    i += 1
                    continue
                if i + 1 >= len(options):
                    break
                length = options[i + 1]
                if kind == 2 and length == 4 and i + 4 <= len(options):
                    mss = int.from_bytes(options[i + 2:i + 4], "big")
                i += max(2, length)
        return cls(src_port, dst_port, seq, ack, flags, window,
                   raw[start + data_offset:end], mss)

    def flag_names(self) -> str:
        names = []
        for bit, name in ((SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"),
                          (RST, "RST"), (PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "none"


# Connection states
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
CLOSING = "CLOSING"
TIME_WAIT = "TIME_WAIT"


class TcpConnection:
    """One TCP connection endpoint."""

    def __init__(
        self,
        stack,
        local: Tuple[str, int],
        remote: Tuple[str, int],
        iss: int,
        recv_capacity: int = 262144,
        mss: int = DEFAULT_MSS,
    ):
        self.stack = stack
        self.sim = stack.sim
        self.local = local
        self.remote = remote
        self.state = CLOSED
        self.mss = mss

        # send side
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self._send_queue = bytearray()      # not yet segmented
        #: the retransmission queue: every segment that consumes sequence
        #: space - SYN, SYN,ACK, data, FIN - from its first send until it
        #: is cumulatively acknowledged, as (seq, data, flags)
        self._inflight: List[Tuple[int, bytes, int]] = []
        #: tx->ack spans keyed by each segment's end seq (tracing only)
        self._tx_spans: Dict[int, object] = {}
        self.peer_window = 1
        self._dupacks = 0
        self._fast_rexmitted = False  # in this run of duplicate ACKs

        # congestion control (NewReno-flavoured)
        self.cwnd = 10 * mss                # IW10 (RFC 6928)
        self.ssthresh = 64 * 1024 * 1024    # effectively open at start
        self.cwnd_reductions = 0

        #: TCP_NODELAY: on (the default here) sends small segments
        #: immediately; off enables Nagle's algorithm - hold sub-MSS data
        #: while anything is unacked.  Latency-sensitive datacenter code
        #: always sets NODELAY, hence the default.
        self.nodelay = True
        self._retries = 0
        self._fin_queued = False
        self._fin_sent_seq: Optional[int] = None

        # receive side
        self.irs = 0
        self.rcv_nxt = 0
        self.recv_capacity = recv_capacity
        self._recv_buffer = bytearray()
        self._ooo: Dict[int, bytes] = {}
        self._peer_fin = False
        #: delayed ACK (RFC 9293 3.8.6.3): in-order bytes not yet
        #: acknowledged; ``_ack_timer`` is armed for the oldest of them
        self._ack_debt = 0

        # RTT estimation (RFC 6298)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = MIN_RTO_NS
        self._rtt_probe: Optional[Tuple[int, int]] = None  # (seq, sent_at)

        # timers: every one is stopped when the connection closes
        self._rto_timer = Timer(self.sim, self._rto_fired)
        self._ack_timer = Timer(self.sim, self._delayed_ack_fired)
        self._probe_timer = Timer(self.sim, self._window_probe)

        # wakeups
        self.established = self.sim.completion("tcp.established")
        self.closed = self.sim.completion("tcp.closed")
        self.recv_wq = WaitQueue(self.sim, "tcp.recv")
        self.send_wq = WaitQueue(self.sim, "tcp.send")
        self.error: Optional[TcpError] = None
        #: the listener whose accept queue takes this connection once it
        #: is established (passive open only)
        self._listener: Optional[TcpListener] = None

    # ------------------------------------------------------------- public
    @property
    def recv_window(self) -> int:
        # Clamped to the 16-bit header field (no window-scale option).
        room = self.recv_capacity - len(self._recv_buffer)
        return 65535 if room > 65535 else max(0, room)

    @property
    def readable_bytes(self) -> int:
        return len(self._recv_buffer)

    @property
    def peer_closed(self) -> bool:
        return self._peer_fin and not self._ooo

    def send(self, data: bytes) -> None:
        """Queue bytes for transmission (stream semantics)."""
        self._ensure_ok()
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise TcpError("send in state %s" % self.state)
        if self._fin_queued:
            raise TcpError("send after close")
        self._send_queue.extend(data)
        self._push()

    def recv(self, max_bytes: int = 2**30) -> bytes:
        """Drain up to *max_bytes* of in-order stream data (b'' if none)."""
        self._ensure_ok()
        if not self._recv_buffer:
            return b""
        take = min(max_bytes, len(self._recv_buffer))
        data = bytes(self._recv_buffer[:take])
        del self._recv_buffer[:take]
        # Window opened: let the peer know if it was closed.
        if take and self.recv_window == take:
            self._send_ack()
        return data

    def recv_signal(self):
        """Completion firing when data (or FIN/error) is available."""
        done = self.sim.completion("tcp.recv_signal")
        if self._recv_buffer or self._peer_fin or self.error:
            done.trigger(None)
            return done
        return self.recv_wq.wait()

    def close(self) -> None:
        """Graceful close: FIN after any queued data."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, FIN_WAIT_1, FIN_WAIT_2, CLOSING):
            return
        if self.state == SYN_SENT:
            self._enter_closed()
            return
        self._fin_queued = True
        if self.state == ESTABLISHED:
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        self._push()

    def abort(self) -> None:
        """Hard reset."""
        if self.state not in (CLOSED,):
            self._emit(TcpSegment(self.local[1], self.remote[1],
                                  self.snd_nxt, self.rcv_nxt, RST | ACK,
                                  self.recv_window))
        self._fail(TcpError("connection aborted"))

    def _ensure_ok(self) -> None:
        if self.error is not None:
            raise self.error

    # -------------------------------------------------------- connecting
    def start_connect(self) -> None:
        self.state = SYN_SENT
        self._send_new(b"", SYN)

    def on_syn(self, syn: TcpSegment) -> None:
        """Take in the peer's SYN - at a listener, crossing ours in
        SYN-SENT, or on the SYN,ACK that answers ours.  A SYN,ACK is
        acknowledged at once; a bare SYN is answered with SYN,ACK."""
        self.irs = syn.seq
        self.rcv_nxt = syn.seq + 1
        self.peer_window = syn.window
        if syn.mss:
            self.mss = min(self.mss, syn.mss)
        if syn.flags & ACK:
            self._send_ack()
            return
        # In SYN-SENT this is simultaneous open (RFC 9293 3.5): the
        # SYN,ACK takes our queued SYN's place, at the same ISS.
        self.state = SYN_RCVD
        self._inflight.clear()
        self.snd_nxt = self.iss
        self._send_new(b"", SYN | ACK)

    # ------------------------------------------------------ segment input
    def on_segment(self, seg: TcpSegment) -> None:
        if seg.flags & RST:
            if self.state != CLOSED:
                self._on_rst(seg)
            return

        if self.state == SYN_SENT:
            # Only a SYN, bare or acknowledging ours, moves SYN-SENT on
            # (RFC 9293 3.10.7.3).
            if not seg.flags & SYN or (seg.flags & ACK
                                       and seg.ack != self.snd_nxt):
                return
            self.on_syn(seg)
        elif seg.flags & SYN and self.state != SYN_RCVD:
            # A SYN on a synchronised connection, wherever its sequence
            # number lies, draws a challenge ACK and is dropped (RFC 5961
            # 4): a peer that restarted answers with an exact RST.
            self.stack.counters.tcp_challenge_acks += 1
            self._send_ack()
            return
        if seg.flags & ACK:
            if seg.ack > self.snd_nxt:
                # Acknowledges data never sent (RFC 9293 3.10.7.4): send
                # an ACK, drop the segment.
                self.stack.counters.tcp_unsent_ack_drops += 1
                self._send_ack()
                return
            self._on_ack(seg)
        if seg.payload:
            self._on_data(seg)
        if seg.flags & FIN:
            self._on_fin(seg)

    def _on_rst(self, seg: TcpSegment) -> None:
        """RFC 9293 3.10.7.4 as tightened by RFC 5961 3: only a RST at
        exactly RCV.NXT resets.  One elsewhere in the window draws a
        challenge ACK - a peer that meant it answers that with an exact
        RST - and anything else, an old duplicate or a guess, is dropped.
        Before the handshake there is no window: a RST counts if it
        acknowledges our SYN (3.10.7.3)."""
        counters = self.stack.counters
        if self.state == SYN_SENT:
            acks_syn = seg.flags & ACK and seg.ack == self.snd_nxt
            offset = 0 if acks_syn else -1
        else:
            offset = seg.seq - self.rcv_nxt
        if offset == 0:
            counters.tcp_rsts_accepted += 1
            self._fail(TcpError("connection reset by peer"))
        elif 0 < offset < self.recv_window:
            counters.tcp_challenge_acks += 1
            self._send_ack()
        else:
            counters.tcp_rst_drops += 1

    def _on_ack(self, seg: TcpSegment) -> None:
        window, self.peer_window = self.peer_window, seg.window
        una = self.snd_una
        if seg.ack > una:
            self.snd_una = seg.ack
            self._dupacks = 0
            self._fast_rexmitted = False
            self._retries = 0
            # RTT sample (Karn: only for never-retransmitted probes)
            if self._rtt_probe is not None and seg.ack > self._rtt_probe[0]:
                self._rtt_sample(self.sim.now - self._rtt_probe[1])
                self._rtt_probe = None
            # Drop fully-acked segments from the retransmit queue.
            self._inflight = [
                (seq, data, flags) for (seq, data, flags) in self._inflight
                if seq + max(1, len(data)) > seg.ack
            ]
            if self._tx_spans:
                for end_seq in [e for e in self._tx_spans if e <= seg.ack]:
                    self._tx_spans.pop(end_seq).end(self.sim.now)
            # RFC 6298 5.2/5.3: an ACK of new data restarts the timer
            # while anything is outstanding and stops it otherwise.
            if self._inflight:
                self._rto_timer.arm(self._rto)
            else:
                self._rto_timer.stop()
            if self.state in (SYN_SENT, SYN_RCVD):
                # Our SYN is acknowledged, in either open.  It carried no
                # data, so the congestion window does not grow.
                self.state = ESTABLISHED
                self.established.trigger(self)
                if self._listener is not None:
                    self._listener._deliver(self)
            elif self.cwnd < self.ssthresh:
                self.cwnd += min(seg.ack - una, self.mss)  # slow start
            else:
                self.cwnd += max(1, self.mss * self.mss // self.cwnd)
            # FIN acked?
            if self._fin_sent_seq is not None and seg.ack > self._fin_sent_seq:
                self._on_fin_acked()
            self.send_wq.pulse()
        elif (seg.ack == una and self._inflight and not seg.payload
              and seg.window == window and not seg.flags & (SYN | FIN)
              and self.state != SYN_RCVD):
            # A duplicate ACK (RFC 5681 2), on a synchronised connection:
            # a queued SYN,ACK is only ever resent by the RTO.  The third
            # repairs the head; so does one fewer than the segments
            # outstanding when two or three are and no new one may go out
            # to draw more (early retransmit, RFC 5827 2.1).  Once per run
            # of them.
            self._dupacks += 1
            oseg = len(self._inflight)
            threshold = 3
            if 2 <= oseg <= 3 and (
                    not self._send_queue
                    or min(window, self.cwnd) <= self.snd_nxt - una):
                threshold = oseg - 1
            if self._dupacks >= threshold and not self._fast_rexmitted:
                self._fast_retransmit(early=threshold < 3)
        self._push()

    def _on_data(self, seg: TcpSegment) -> None:
        seq, payload = seg.seq, seg.payload
        end = seq + len(payload)
        if end <= self.rcv_nxt:
            self._send_ack()  # pure duplicate
            return
        if seq > self.rcv_nxt:
            # Out of order: buffer (bounded by window) and dup-ack.
            if seq - self.rcv_nxt < self.recv_capacity:
                self._ooo.setdefault(seq, payload)
                self.stack.counters.tcp_ooo_buffered += 1
            self._send_ack()
            return
        # Trim any already-received prefix.
        if seq < self.rcv_nxt:
            payload = payload[self.rcv_nxt - seq:]
            seq = self.rcv_nxt
        fills_gap = bool(self._ooo)
        self._accept_data(payload)
        # Coalesce out-of-order segments that are now in order.
        while self.rcv_nxt in self._ooo:
            chunk = self._ooo.pop(self.rcv_nxt)
            self._accept_data(chunk)
        self._owe_ack(self.rcv_nxt - seq, at_once=fills_gap)
        self.recv_wq.pulse()

    def _accept_data(self, payload: bytes) -> None:
        room = self.recv_capacity - len(self._recv_buffer)
        if len(payload) > room:
            payload = payload[:room]  # receiver never advertised this; drop
            self.stack.counters.tcp_window_overrun_trimmed += 1
        self._recv_buffer.extend(payload)
        self.rcv_nxt += len(payload)

    def _on_fin(self, seg: TcpSegment) -> None:
        fin_seq = seg.seq + len(seg.payload)
        if fin_seq != self.rcv_nxt:
            self._send_ack()
            return  # FIN out of order; wait for retransmit
        self.rcv_nxt += 1
        self._peer_fin = True
        self._send_ack()
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        self.recv_wq.pulse()

    def _on_fin_acked(self) -> None:
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._enter_closed()

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self.sim.call_in(TIME_WAIT_NS, self._time_wait_expired)

    def _time_wait_expired(self) -> None:
        if self.state == TIME_WAIT:
            self._enter_closed()

    def _enter_closed(self) -> None:
        self.state = CLOSED
        self._stop_timers()
        self.stack._forget_connection(self)
        if not self.closed.triggered:
            self.closed.trigger(None)

    def _fail(self, err: TcpError) -> None:
        self.error = err
        self.state = CLOSED
        self._stop_timers()
        self.stack._forget_connection(self)
        if not self.established.triggered:
            self.established.fail(err)
        if not self.closed.triggered:
            self.closed.trigger(err)
        self.recv_wq.pulse()
        self.send_wq.pulse()

    # ---------------------------------------------------------- sending
    def _push(self) -> None:
        """Segment whatever the peer's window and MSS allow."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            return
        while self._send_queue:
            outstanding = self.snd_nxt - self.snd_una
            window_room = min(self.peer_window, self.cwnd) - outstanding
            if window_room <= 0:
                if (self.peer_window - outstanding <= 0
                        and not self._probe_timer.armed):
                    self._probe_timer.arm(WINDOW_PROBE_NS)
                # else: cwnd-limited; acks will reopen it.
                break
            take = min(len(self._send_queue), self.mss, window_room)
            if (not self.nodelay and take < self.mss
                    and self.snd_nxt > self.snd_una
                    and not self._fin_queued):
                # Nagle: a sub-MSS segment waits while data is unacked.
                self.stack.counters.tcp_nagle_delays += 1
                break
            payload = bytes(self._send_queue[:take])
            del self._send_queue[:take]
            seq = self.snd_nxt
            if self.stack.tracer.tracing:
                # tx->ack span: ends when the cumulative ack covers the
                # segment (retransmits extend it, as they should).
                self._tx_spans[seq + take] = self.stack.counters.span(
                    names.SPAN_TCP_TX_ACK, names.CAT_NETSTACK, self.sim.now,
                    seq=seq, nbytes=take)
            if self._rtt_probe is None:
                self._rtt_probe = (seq, self.sim.now)
            self._send_new(payload, PSH | ACK)
        if self._fin_queued and not self._send_queue and self._fin_sent_seq is None:
            self._fin_sent_seq = self.snd_nxt
            self._send_new(b"", FIN | ACK)

    def _send_new(self, payload: bytes, flags: int) -> None:
        """First send of the segment at ``snd_nxt``: it joins the
        retransmission queue and takes sequence space, one number for a
        SYN or FIN."""
        seq = self.snd_nxt
        self.snd_nxt += len(payload) or 1
        self._inflight.append((seq, payload, flags))
        self._transmit(seq, payload, flags)
        # RFC 6298 5.1: sending starts the timer only if it is not
        # running; restarting it would let a sender that keeps sending
        # postpone its oldest segment's timeout for ever.
        if not self._rto_timer.armed:
            self._rto_timer.arm(self._rto)

    def _transmit(self, seq: int, payload: bytes, flags: int) -> None:
        """Put a segment of the retransmission queue on the wire, first
        send or resend alike; a SYN carries the MSS option."""
        self._emit(TcpSegment(self.local[1], self.remote[1], seq,
                              self.rcv_nxt, flags, self.recv_window, payload,
                              self.mss if flags & SYN else None))

    def _send_ack(self) -> None:
        self._emit(TcpSegment(self.local[1], self.remote[1], self.snd_nxt,
                              self.rcv_nxt, ACK, self.recv_window))

    def _owe_ack(self, nbytes: int, at_once: bool) -> None:
        """*nbytes* arrived in order.  Their ACK rides on whatever this
        connection emits next; a pure ACK goes out now if the segment
        filled a gap or two full-sized segments are owed (RFC 5681 4.2),
        else ``DELAYED_ACK_NS`` after the oldest unacknowledged byte."""
        self._ack_debt += nbytes
        if at_once or self._ack_debt >= 2 * self.mss:
            self._send_ack()
        elif not self._ack_timer.armed:
            self._ack_timer.arm(DELAYED_ACK_NS)

    def _delayed_ack_fired(self) -> None:
        self.stack.counters.tcp_delayed_acks += 1
        self._send_ack()

    def _emit(self, seg: TcpSegment) -> None:
        # Every segment carries ACK = rcv_nxt, so it pays the ACK debt.
        self._ack_debt = 0
        self._ack_timer.stop()
        self.stack._tcp_transmit(self, seg)

    # ------------------------------------------------------------- timers
    def _rtt_sample(self, rtt: int) -> None:
        if self._srtt is None:
            self._srtt = float(rtt)
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = int(min(MAX_RTO_NS, max(MIN_RTO_NS, self._srtt + 4 * self._rttvar)))

    def _stop_timers(self) -> None:
        self._rto_timer.stop()
        self._ack_timer.stop()
        self._probe_timer.stop()

    def _rto_fired(self) -> None:
        """The timer runs only while the queue holds something: resend its
        head, whatever that is, collapse the window to one segment (after
        a lost SYN or SYN,ACK too: RFC 5681 3.1), and back off."""
        flags = self._inflight[0][2]
        self._retries += 1
        if self._retries > (MAX_SYN_RETRIES if flags & SYN
                            else MAX_DATA_RETRIES):
            what = {SYN: "SYN", SYN | ACK: "SYN-ACK"}.get(flags, "data")
            self._fail(TcpError("connection timed out (%s)" % what))
            return
        self._congestion_event(to_one_mss=True)
        self._retransmit_head()
        self._rto = min(MAX_RTO_NS, self._rto * 2)
        self._rtt_probe = None  # Karn's algorithm
        self._rto_timer.arm(self._rto)

    def _congestion_event(self, to_one_mss: bool) -> None:
        """Multiplicative decrease: RTO collapses, fast-retransmit halves."""
        outstanding = max(self.snd_nxt - self.snd_una, self.mss)
        self.ssthresh = max(2 * self.mss, outstanding // 2)
        self.cwnd = self.mss if to_one_mss else self.ssthresh
        self.cwnd_reductions += 1
        self.stack.counters.tcp_cwnd_reductions += 1

    def _fast_retransmit(self, early: bool) -> None:
        counters = self.stack.counters
        counters.tcp_fast_retransmits += 1
        if early:
            counters.tcp_early_retransmits += 1
        self._fast_rexmitted = True
        if self._rtt_probe is not None \
                and self._rtt_probe[0] == self._inflight[0][0]:
            self._rtt_probe = None  # Karn: that segment is now sent twice
        self._congestion_event(to_one_mss=False)
        self._retransmit_head()

    def _retransmit_head(self) -> None:
        self.stack.counters.tcp_retransmits += 1
        self._transmit(*self._inflight[0])

    def _window_probe(self) -> None:
        """The one persist timer (RFC 9293 3.8.6.1): a probe every
        ``WINDOW_PROBE_NS`` while the peer's window stays closed."""
        if (self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1) and
                self._send_queue and
                self.peer_window - (self.snd_nxt - self.snd_una) <= 0):
            self.stack.counters.tcp_window_probes += 1
            self._send_ack()  # zero-window probe (degenerate)
            self._probe_timer.arm(WINDOW_PROBE_NS)

    def __repr__(self) -> str:  # pragma: no cover
        return "<TcpConnection %s:%d->%s:%d %s>" % (
            self.local[0], self.local[1], self.remote[0], self.remote[1], self.state)


class TcpListener:
    """A passive socket: SYNs become connections in the accept queue."""

    def __init__(self, stack, port: int, backlog: int = 128):
        self.stack = stack
        self.sim = stack.sim
        self.port = port
        self.backlog = backlog
        self._accept_queue: List[TcpConnection] = []
        self.accept_wq = WaitQueue(self.sim, "tcp.accept")
        self.closed = False

    def _deliver(self, conn: TcpConnection) -> None:
        if len(self._accept_queue) >= self.backlog:
            conn.abort()
            self.stack.counters.tcp_accept_overflow += 1
            return
        self._accept_queue.append(conn)
        self.accept_wq.pulse()

    def accept_nb(self) -> Optional[TcpConnection]:
        """Non-blocking accept; None if the queue is empty."""
        if self._accept_queue:
            return self._accept_queue.pop(0)
        return None

    def accept_signal(self):
        done = self.sim.completion("tcp.accept_signal")
        if self._accept_queue:
            done.trigger(None)
            return done
        return self.accept_wq.wait()

    def close(self) -> None:
        self.closed = True
        self.stack._forget_listener(self)
