"""Wire-format unit tests: ethernet, ARP, IPv4, UDP, TCP segments."""

import random

import pytest

from repro.netstack.arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.netstack.packet import (
    PacketError,
    bytes_to_ip,
    bytes_to_mac,
    internet_checksum,
    ip_to_bytes,
    mac_to_bytes,
    pseudo_header,
)
from repro.netstack.stack import NetStack
from repro.netstack.tcp import ACK, PSH, SYN, TcpSegment
from repro.netstack.udp import UdpDatagram
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class TestAddressCodecs:
    def test_mac_roundtrip(self):
        mac = "02:0a:ff:00:10:01"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_bad_mac_rejected(self):
        with pytest.raises(PacketError):
            mac_to_bytes("not-a-mac")
        with pytest.raises(PacketError):
            mac_to_bytes("02:00:00:00:00")
        with pytest.raises(PacketError):
            mac_to_bytes("zz:00:00:00:00:00")

    def test_ip_roundtrip(self):
        assert bytes_to_ip(ip_to_bytes("10.0.0.1")) == "10.0.0.1"

    def test_bad_address_raises_on_every_call(self):
        # the codecs are memoised; a failure must not be
        for _ in range(3):
            with pytest.raises(PacketError):
                ip_to_bytes("10.0.0.256")
            with pytest.raises(PacketError):
                mac_to_bytes("02:00:00:00:00:zz")
            with pytest.raises(PacketError):
                bytes_to_ip(b"\x0a\x00\x00")
            with pytest.raises(PacketError):
                bytes_to_mac(b"\x02" * 5)

    def test_cache_is_bounded_and_roundtrip_survives_eviction(self):
        for codec in (ip_to_bytes, bytes_to_ip, mac_to_bytes, bytes_to_mac):
            assert codec.cache_info().maxsize is not None
        bound = ip_to_bytes.cache_info().maxsize
        addresses = ["10.%d.%d.%d" % (a, b, c) for a in range(3)
                     for b in range(0, 256, 5) for c in range(0, 256, 7)]
        assert len(addresses) > bound
        for ip in addresses:
            assert bytes_to_ip(ip_to_bytes(ip)) == ip
        assert ip_to_bytes.cache_info().currsize <= bound
        assert bytes_to_ip.cache_info().currsize <= bound
        assert ip_to_bytes(addresses[0]) == b"\x0a\x00\x00\x00"  # evicted, re-parsed

    def test_bad_ip_rejected(self):
        for bad in ("10.0.0", "256.1.1.1", "a.b.c.d", "1.2.3.4.5"):
            with pytest.raises(PacketError):
                ip_to_bytes(bad)


def _word_loop_checksum(data: bytes) -> int:
    """The RFC 1071 fold one 16-bit word at a time: the reference the
    big-integer ``internet_checksum`` must match bit for bit."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum:
    def test_matches_the_word_loop_on_random_strings(self):
        rng = random.Random(1071)
        for _ in range(20_000):
            data = rng.randbytes(rng.randint(0, 1600))
            assert internet_checksum(data) == _word_loop_checksum(data)

    @pytest.mark.parametrize("data", [
        b"", b"\x01", b"\xab\xcd\xef", b"\xff\xff", b"\xff\xff\xff\xff",
        b"\xff", b"\x00", b"\x00" * 7, b"\x00" * 1500,
        b"\x00\x00\xff\xff\x00", b"\xff\xfe\x00\x01", b"\x80\x00" * 4,
        b"\xff" * 65536,  # the sum is a non-zero multiple of 0xFFFF
    ], ids=lambda data: "%dB-%s" % (len(data), data[:4].hex()))
    def test_matches_the_word_loop_on_edge_cases(self, data):
        assert internet_checksum(data) == _word_loop_checksum(data)

    def test_zero_sum_is_reached_only_by_all_zero_data(self):
        assert internet_checksum(b"\x00" * 64) == 0xFFFF
        assert internet_checksum(b"\xff" * 65536) == 0x0000

    def test_known_vector(self):
        # RFC 1071 example data
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_packet_with_checksum_is_zero(self):
        data = b"\x45\x00\x00\x14" + b"\x00" * 16
        csum = internet_checksum(data)
        patched = data[:10] + bytes([csum >> 8, csum & 0xFF]) + data[12:]
        assert internet_checksum(patched) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                              ETHERTYPE_IPV4, b"payload")
        parsed = EthernetFrame.unpack(frame.pack())
        assert parsed == frame

    def test_packed_length_includes_header(self):
        frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                              ETHERTYPE_IPV4, b"12345")
        assert len(frame.pack()) == 14 + 5

    def test_too_short_rejected(self):
        with pytest.raises(PacketError):
            EthernetFrame.unpack(b"\x00" * 10)


class TestArp:
    def test_request_roundtrip(self):
        pkt = ArpPacket(ARP_REQUEST, "02:00:00:00:00:01", "10.0.0.1",
                        "00:00:00:00:00:00", "10.0.0.2")
        assert ArpPacket.unpack(pkt.pack()) == pkt

    def test_reply_roundtrip(self):
        pkt = ArpPacket(ARP_REPLY, "02:00:00:00:00:02", "10.0.0.2",
                        "02:00:00:00:00:01", "10.0.0.1")
        assert ArpPacket.unpack(pkt.pack()) == pkt

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            ArpPacket.unpack(b"\x00" * 20)


class TestIpv4:
    def test_roundtrip(self):
        pkt = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"hello", ident=7)
        parsed = Ipv4Packet.unpack(pkt.pack())
        assert (parsed.src, parsed.dst, parsed.proto, parsed.payload) == (
            "10.0.0.1", "10.0.0.2", PROTO_UDP, b"hello")
        assert parsed.ident == 7

    def test_checksum_verified(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(b"\x45\x00")

    def test_non_ipv4_rejected(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(bytes(raw))


class TestUdp:
    def test_roundtrip(self):
        datagram = UdpDatagram(1111, 2222, b"data")
        parsed = UdpDatagram.unpack(datagram.pack("10.0.0.1", "10.0.0.2"))
        assert (parsed.src_port, parsed.dst_port, parsed.payload) == (1111, 2222, b"data")

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            UdpDatagram.unpack(b"\x00\x01")

    def test_length_field_limits_payload(self):
        raw = UdpDatagram(1, 2, b"abcd").pack("10.0.0.1", "10.0.0.2")
        parsed = UdpDatagram.unpack(raw + b"trailing-garbage")
        assert parsed.payload == b"abcd"


class TestTcpSegment:
    def test_roundtrip_with_payload(self):
        seg = TcpSegment(80, 12345, seq=1000, ack=2000, flags=PSH | ACK,
                         window=8192, payload=b"GET /")
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert (parsed.src_port, parsed.dst_port) == (80, 12345)
        assert (parsed.seq, parsed.ack) == (1000, 2000)
        assert parsed.flags == PSH | ACK
        assert parsed.window == 8192
        assert parsed.payload == b"GET /"
        assert parsed.mss is None

    def test_syn_carries_mss_option(self):
        seg = TcpSegment(80, 12345, seq=0, ack=0, flags=SYN, window=100, mss=1460)
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert parsed.mss == 1460
        assert parsed.flags & SYN

    def test_sequence_numbers_wrap_32_bits(self):
        seg = TcpSegment(1, 2, seq=2**32 + 5, ack=2**33 + 9, flags=ACK, window=1)
        parsed = TcpSegment.unpack(seg.pack("10.0.0.1", "10.0.0.2"))
        assert parsed.seq == 5
        assert parsed.ack == 9

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            TcpSegment.unpack(b"\x00" * 10)

    def test_flag_names(self):
        seg = TcpSegment(1, 2, 0, 0, SYN | ACK, 0)
        assert seg.flag_names() == "SYN|ACK"


class TestGoldenFrames:
    """Ethernet + IPv4 + TCP as they leave the stack, pinned octet for
    octet: a rewrite of the header packing may not move one of them."""

    ETH_IP = ("020000000002" "020000000001" "0800"      # dst, src, IPv4
              "4500%04x%04x4000" "4006%04x"            # len, ident, DF; ttl, TCP, csum
              "0a000001" "0a000002")

    @staticmethod
    def _frame(seg: TcpSegment, ident: int) -> bytes:
        l4 = seg.pack("10.0.0.1", "10.0.0.2")
        l3 = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_TCP, l4, ident=ident).pack()
        return EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                             ETHERTYPE_IPV4, l3).pack()

    def test_syn_with_mss_option(self):
        raw = self._frame(TcpSegment(49152, 6379, 65000, 0, SYN, 65535,
                                     mss=1460), ident=1)
        assert raw.hex() == (
            self.ETH_IP % (44, 1, 0x26C9)
            + "c000" "18eb" "0000fde8" "00000000"      # ports, seq, ack
            + "6002" "ffff" "ad4f" "0000"              # offset 6 + SYN, window, csum, urg
            + "020405b4")                              # MSS 1460

    def test_256_byte_data_segment(self):
        payload = bytes(range(256))
        raw = self._frame(TcpSegment(49152, 6379, 65001, 129001, PSH | ACK,
                                     65535, payload), ident=2)
        assert raw.hex() == (
            self.ETH_IP % (296, 2, 0x25CC)
            + "c000" "18eb" "0000fde9" "0001f7e9"
            + "5018" "ffff" "0bca" "0000"
            + payload.hex())
        parsed = TcpSegment.unpack(Ipv4Packet.unpack(
            EthernetFrame.unpack(raw).payload).payload)
        assert (parsed.seq, parsed.ack, parsed.payload) == (65001, 129001,
                                                            payload)


# -- the stack's in-place codec against the dataclass chain --------------------

MAC_A, MAC_B = "02:00:00:00:00:01", "02:00:00:00:00:02"
IP_A, IP_B = "10.0.0.1", "10.0.0.2"


def _stack():
    """A bare NetStack at (MAC_B, IP_B) that knows A: (stack, tracer,
    the ``(dst_mac, raw)`` frames it sent)."""
    tracer, sent = Tracer(), []
    stack = NetStack(Simulator(), "s", MAC_B, IP_B,
                     lambda dst_mac, raw: sent.append((dst_mac, raw)),
                     tracer)
    stack.arp_table[IP_A] = MAC_A
    return stack, tracer, sent


def _chain(l4: bytes, proto: int, ident: int = 0, src_mac=MAC_A,
           dst_mac=MAC_B, src_ip=IP_A, dst_ip=IP_B) -> bytes:
    """The reference: one dataclass and one ``pack`` per layer."""
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, Ipv4Packet(
        src_ip, dst_ip, proto, l4, ident=ident).pack()).pack()


def _generated_segments():
    mss_payload = bytes(i % 251 for i in range(1460))
    yield TcpSegment(49152, 80, 65000, 0, SYN, 65535, mss=1460)
    yield TcpSegment(80, 49152, 1000, 65001, SYN | ACK, 65535, mss=536)
    for payload in (b"", b"x", b"odd", mss_payload[:255], mss_payload):
        yield TcpSegment(49152, 80, 65001, 1001, PSH | ACK, 65535, payload)
    for flags in range(0x40):
        yield TcpSegment(1, 65535, 7, 9, flags, 0, b"f" * (flags % 3))
    for seq, ack in ((2**32 - 1, 0), (0, 2**32 - 1),
                     (2**32 - 1, 2**32 - 1)):
        yield TcpSegment(49152, 80, seq, ack, ACK, 1, b"wrap")


class _Peer:
    """What ``_tcp_transmit`` reads of a connection."""
    local, remote = (IP_B, 80), (IP_A, 49152)


class TestStackCodecAgainstTheDataclassChain:
    def test_tcp_emit_equals_the_chain(self):
        stack, _tracer, sent = _stack()
        stack._ip_ident = 0xFFFC  # the idents wrap inside this run
        idents = []
        for seg in _generated_segments():
            stack._tcp_transmit(_Peer, seg)
            ident = (0xFFFC + len(sent)) & 0xFFFF
            idents.append(ident)
            assert sent[-1] == (MAC_A, _chain(
                seg.pack(IP_B, IP_A), PROTO_TCP, ident, MAC_B, MAC_A,
                IP_B, IP_A))
        assert idents[:4] == [0xFFFD, 0xFFFE, 0xFFFF, 0]

    @pytest.mark.parametrize("payload", [b"", b"u", b"odd", bytes(1472)])
    def test_udp_emit_equals_the_chain(self, payload):
        stack, _tracer, sent = _stack()
        stack._ip_ident = 0xFFFF
        stack.udp_send(5000, IP_A, 53, payload)
        assert sent == [(MAC_A, _chain(
            UdpDatagram(5000, 53, payload).pack(IP_B, IP_A), PROTO_UDP, 0,
            MAC_B, MAC_A, IP_B, IP_A))]

    def test_a_queued_packet_keeps_its_ident_across_arp(self):
        stack, _tracer, sent = _stack()
        stack.arp_table.clear()
        seg = TcpSegment(80, 49152, 1, 2, ACK, 3, b"queued")
        stack._tcp_transmit(_Peer, seg)          # ident 1, parked behind ARP
        stack.arp_table[IP_A] = MAC_A
        stack._tcp_transmit(_Peer, seg)          # ident 2, leaves first
        stack._flush_arp_pending(IP_A)
        l4 = seg.pack(IP_B, IP_A)
        assert [raw for _mac, raw in sent[1:]] == [
            _chain(l4, PROTO_TCP, ident, MAC_B, MAC_A, IP_B, IP_A)
            for ident in (2, 1)]

    @pytest.mark.parametrize("padding", [b"", b"\x00" * 6, b"\xff" * 7])
    def test_tcp_parse_equals_the_chain(self, padding):
        stack, tracer, _sent = _stack()
        seen = []

        class Conn:
            on_segment = staticmethod(seen.append)

        segments = list(_generated_segments())
        for seg in segments:
            stack._tcp_conns[IP_B, seg.dst_port, IP_A, seg.src_port] = Conn
            # Ethernet pads short frames; total_len is what bounds the data
            raw = _chain(seg.pack(IP_A, IP_B), PROTO_TCP, 77) + padding
            stack.rx_frame(raw)
            assert seen.pop() == TcpSegment.unpack(Ipv4Packet.unpack(
                EthernetFrame.unpack(raw).payload).payload) == seg
        assert tracer.snapshot() == {"s.rx_frames": len(segments)}

    @pytest.mark.parametrize("padding", [b"", b"\x00" * 18])
    def test_udp_parse_equals_the_chain(self, padding):
        stack, _tracer, _sent = _stack()
        seen = []
        stack.udp_bind(53, lambda *args: seen.append(args))
        for payload in (b"", b"u", b"odd", bytes(range(256)) * 5):
            raw = _chain(UdpDatagram(5000, 53, payload).pack(IP_A, IP_B),
                         PROTO_UDP) + padding
            stack.rx_frame(raw)
            datagram = UdpDatagram.unpack(Ipv4Packet.unpack(
                EthernetFrame.unpack(raw).payload).payload)
            assert seen.pop() == (datagram.payload, IP_A, 5000)
            assert datagram.payload == payload


def _patched(raw: bytes, offset: int, value: bytes,
             fix_checksums: bool = True) -> bytes:
    """*raw* with *value* written at *offset*, then (unless
    *fix_checksums* is false) with its IPv4 header checksum and its TCP
    or UDP checksum made good, so that the frame reaches the check its
    case names instead of a checksum drop.  An L4 too short to hold its
    checksum field is left as it is."""
    out = bytearray(raw)
    out[offset:offset + len(value)] = value
    if not fix_checksums or len(out) < 34:
        return bytes(out)
    out[24:26] = b"\x00\x00"
    out[24:26] = internet_checksum(bytes(out[14:34])).to_bytes(2, "big")
    proto = out[23]
    # where the L4 checksum lies, and where total_len ends the L4 bytes
    field = {PROTO_TCP: 34 + 16, PROTO_UDP: 34 + 6}.get(proto)
    end = min(len(out), 14 + int.from_bytes(out[16:18], "big"))
    if field is not None and field + 2 <= end:
        out[field:field + 2] = b"\x00\x00"
        pseudo = pseudo_header(bytes_to_ip(bytes(out[26:30])),
                               bytes_to_ip(bytes(out[30:34])), proto,
                               end - 34)
        out[field:field + 2] = internet_checksum(
            pseudo + bytes(out[34:end])).to_bytes(2, "big")
    return bytes(out)


_DATA = _chain(TcpSegment(49152, 80, 1, 2, PSH | ACK, 3, b"payload").pack(
    IP_A, IP_B), PROTO_TCP, ident=5)

#: name -> (frame, every counter the frame may bump).  Every stack
#: verifies checksums, and an L4 too short to carry one fails that check
#: before it can be parsed.
_FOREIGN_AND_MALFORMED = {
    "13-byte frame": (_DATA[:13], {"rx_malformed": 1}),
    "wrong unicast MAC": (
        _patched(_DATA, 0, b"\x02\x00\x00\x00\x00\x09"),
        {"rx_wrong_mac": 1}),
    "broadcast is ours": (
        _patched(_chain(UdpDatagram(1, 9, b"hi").pack(IP_A, IP_B),
                        PROTO_UDP), 0, b"\xff" * 6),
        {"udp_no_listener": 1}),
    "unknown ethertype": (
        _patched(_DATA, 12, b"\x86\xdd"), {"rx_unknown_ethertype": 1}),
    "ethernet header only": (_DATA[:14], {"rx_malformed": 1}),
    "IPv4 header cut short": (_DATA[:33], {"rx_malformed": 1}),
    "IP version 6": (_patched(_DATA, 14, b"\x65"), {"rx_malformed": 1}),
    "IHL 6": (_patched(_DATA, 14, b"\x46"), {"rx_malformed": 1}),
    "total_len beyond the frame": (
        _patched(_DATA, 16, (len(_DATA) - 13).to_bytes(2, "big")),
        {"rx_malformed": 1}),
    "total_len < 20": (
        _patched(_DATA, 16, b"\x00\x13"), {"tcp_bad_checksum_drops": 1}),
    "bad header checksum": (
        _patched(_DATA, 22, b"\x3f", fix_checksums=False),
        {"rx_malformed": 1}),
    "wrong destination IP": (
        _patched(_DATA, 30, b"\x0a\x00\x00\x63"), {"rx_wrong_ip": 1}),
    "protocol 1": (_patched(_DATA, 23, b"\x01"), {"rx_unknown_proto": 1}),
    "TCP shorter than 20 bytes": (
        _patched(_DATA[:53], 16, b"\x00\x27"),
        {"tcp_bad_checksum_drops": 1}),
    "data offset 4": (_patched(_DATA, 46, b"\x40"), {"rx_malformed": 1}),
    "data offset past the end": (
        _patched(_DATA, 46, b"\x70"), {"rx_malformed": 1}),
    "data offset past total_len, inside the padding": (
        _patched(_DATA + bytes(8), 46, b"\x70"), {"rx_malformed": 1}),
    "bad TCP checksum": (
        _patched(_DATA, 60, b"P", fix_checksums=False),
        {"tcp_bad_checksum_drops": 1}),
    "UDP shorter than 8 bytes": (
        _chain(b"\x00\x01\x00\x09\x00", PROTO_UDP),
        {"udp_bad_checksum_drops": 1}),
    "UDP length beyond the datagram": (
        _chain(b"\x00\x01\x00\x09\x00\x10\x00\x00hi", PROTO_UDP),
        {"rx_malformed": 1}),
    "bad UDP checksum": (
        _patched(_chain(UdpDatagram(1, 9, b"hi").pack(IP_A, IP_B),
                        PROTO_UDP), 42, b"HI", fix_checksums=False),
        {"udp_bad_checksum_drops": 1}),
    "truncated ARP": (
        EthernetFrame(MAC_B, MAC_A, 0x0806, b"\x00\x01\x08").pack(),
        {"rx_malformed": 1}),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_AND_MALFORMED))
def test_foreign_or_malformed_frame_bumps_exactly_its_counters(case):
    raw, bumped = _FOREIGN_AND_MALFORMED[case]
    stack, tracer, sent = _stack()
    stack.rx_frame(raw)
    expected = {"s.%s" % leaf: n for leaf, n in bumped.items()}
    expected["s.rx_frames"] = 1
    assert tracer.snapshot() == expected
    assert len(sent) == bumped.get("tx_frames", 0)
    assert not stack._tcp_conns


def _reference_decode(raw: bytes):
    """*raw* through the dataclass decoders, one ``unpack`` per layer."""
    frame = EthernetFrame.unpack(raw)
    if frame.ethertype != ETHERTYPE_IPV4:
        return ArpPacket.unpack(frame.payload)
    pkt = Ipv4Packet.unpack(frame.payload)
    layer = TcpSegment if pkt.proto == PROTO_TCP else UdpDatagram
    return layer.unpack(pkt.payload)


@pytest.mark.parametrize("case", sorted(
    name for name, (_raw, bumped) in _FOREIGN_AND_MALFORMED.items()
    if "rx_malformed" in bumped))
def test_reference_decoders_reject_what_the_stack_calls_malformed(case):
    # The stack parses headers in place; the dataclass decoders are the
    # reference it mirrors, so each frame it drops as malformed fails there.
    raw, _bumped = _FOREIGN_AND_MALFORMED[case]
    with pytest.raises(PacketError):
        _reference_decode(raw)
