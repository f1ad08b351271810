"""Edge cases in the NetStack glue: demux, RSTs, ports, filtering."""

import pytest

from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ipv4 import Ipv4Packet
from repro.netstack.tcp import ACK, PSH, TcpSegment

from ..conftest import make_net_pair


class TestFrameFiltering:
    def test_wrong_mac_dropped(self):
        w, a, b = make_net_pair()
        frame = EthernetFrame("02:ff:ff:ff:ff:ff", a.stack.mac,
                              ETHERTYPE_IPV4, b"payload-unused")
        b.stack.rx_frame(frame.pack())
        assert w.tracer.get("server.stack.rx_wrong_mac") == 1

    def test_unknown_ethertype_counted(self):
        w, a, b = make_net_pair()
        frame = EthernetFrame(b.stack.mac, a.stack.mac,
                              0x86DD, b"ipv6-we-dont-speak")
        b.stack.rx_frame(frame.pack())
        assert w.tracer.get("server.stack.rx_unknown_ethertype") == 1

    def test_unknown_ip_proto_counted(self):
        w, a, b = make_net_pair()
        packet = Ipv4Packet("10.0.0.1", "10.0.0.2", 132, b"sctp?")
        frame = EthernetFrame(b.stack.mac, a.stack.mac,
                              ETHERTYPE_IPV4, packet.pack())
        b.stack.rx_frame(frame.pack())
        assert w.tracer.get("server.stack.rx_unknown_proto") == 1


class TestTcpDemux:
    def test_stray_data_segment_draws_rst(self):
        w, a, b = make_net_pair()
        a.stack.arp_table["10.0.0.2"] = b.stack.mac
        b.stack.arp_table["10.0.0.1"] = a.stack.mac
        # A data segment for a connection that does not exist.
        seg = TcpSegment(50000, 80, seq=1234, ack=5678,
                         flags=PSH | ACK, window=100, payload=b"ghost")
        packet = Ipv4Packet("10.0.0.1", "10.0.0.2", 6,
                            seg.pack("10.0.0.1", "10.0.0.2"))
        frame = EthernetFrame(b.stack.mac, a.stack.mac,
                              ETHERTYPE_IPV4, packet.pack())
        b.stack.rx_frame(frame.pack())
        w.run()
        assert w.tracer.get("server.stack.tcp_rst_sent") == 1

    def test_rst_segment_never_answered_with_rst(self):
        from repro.netstack.tcp import RST
        w, a, b = make_net_pair()
        a.stack.arp_table["10.0.0.2"] = b.stack.mac
        b.stack.arp_table["10.0.0.1"] = a.stack.mac
        seg = TcpSegment(50000, 80, seq=1, ack=1, flags=RST, window=0)
        packet = Ipv4Packet("10.0.0.1", "10.0.0.2", 6,
                            seg.pack("10.0.0.1", "10.0.0.2"))
        frame = EthernetFrame(b.stack.mac, a.stack.mac,
                              ETHERTYPE_IPV4, packet.pack())
        b.stack.rx_frame(frame.pack())
        w.run()
        assert w.tracer.get("server.stack.tcp_rst_sent") == 0


class TestEphemeralPorts:
    def test_allocations_are_distinct(self):
        w, a, b = make_net_pair()
        b.stack.tcp_listen(80)
        ports = set()
        for _ in range(10):
            conn = a.stack.tcp_connect("10.0.0.2", 80)
            ports.add(conn.local[1])
        assert len(ports) == 10
        assert all(49152 <= p <= 65535 for p in ports)

    def test_explicit_source_port_honoured(self):
        w, a, b = make_net_pair()
        b.stack.tcp_listen(80)
        conn = a.stack.tcp_connect("10.0.0.2", 80, src_port=55555)
        assert conn.local[1] == 55555
        w.run()
        assert conn.state == "ESTABLISHED"

    def test_duplicate_four_tuple_rejected(self):
        w, a, b = make_net_pair()
        b.stack.tcp_listen(80)
        a.stack.tcp_connect("10.0.0.2", 80, src_port=44444)
        with pytest.raises(ValueError):
            a.stack.tcp_connect("10.0.0.2", 80, src_port=44444)


class TestConnectionCounting:
    def test_connection_count_tracks_lifecycle(self):
        w, a, b = make_net_pair()
        b.stack.tcp_listen(80)
        conn = a.stack.tcp_connect("10.0.0.2", 80)
        w.run()
        assert len(a.stack._tcp_conns) == 1
        assert len(b.stack._tcp_conns) == 1
        conn.close()
        w.run()
        # Client side lingers in TIME_WAIT then clears; server closes on
        # its own close. Drive the server side shut too.
        for c in list(b.stack._tcp_conns.values()):
            c.close()
        w.run()
        assert len(a.stack._tcp_conns) == 0
        assert len(b.stack._tcp_conns) == 0
