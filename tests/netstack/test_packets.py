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
)
from repro.netstack.tcp import ACK, PSH, SYN, TcpSegment
from repro.netstack.udp import UdpDatagram


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

    def test_too_short_rejected(self):
        with pytest.raises(PacketError):
            EthernetFrame.unpack(b"\x00" * 10)

    def test_len_includes_header(self):
        frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                              ETHERTYPE_IPV4, b"12345")
        assert len(frame) == 14 + 5


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

    def test_corruption_ignored_when_not_verifying(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[8] ^= 0xFF
        pkt = Ipv4Packet.unpack(bytes(raw), verify_checksum=False)
        assert pkt.payload == b"x"

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(b"\x45\x00")

    def test_non_ipv4_rejected(self):
        raw = bytearray(Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP, b"x").pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            Ipv4Packet.unpack(bytes(raw), verify_checksum=False)


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
