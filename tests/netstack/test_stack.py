"""Integration tests: ARP resolution, UDP delivery, demux, stack plumbing."""

import pytest

from repro.netstack.packet import PacketError

from ..conftest import make_net_pair


class TestArp:
    def test_first_packet_triggers_resolution_then_delivers(self):
        w, a, b = make_net_pair()
        got = []
        b.stack.udp_bind(53, lambda data, ip, port: got.append((data, ip, port)))
        a.stack.udp_send(9999, "10.0.0.2", 53, b"query")
        w.run()
        assert got == [(b"query", "10.0.0.1", 9999)]
        assert w.tracer.get("client.stack.arp_requests") == 1
        # Resolution is cached afterwards.
        assert a.stack.arp_table["10.0.0.2"] == b.stack.mac

    def test_second_packet_uses_cache(self):
        w, a, b = make_net_pair()
        got = []
        b.stack.udp_bind(53, lambda data, ip, port: got.append(data))
        a.stack.udp_send(9999, "10.0.0.2", 53, b"one")
        w.run()
        a.stack.udp_send(9999, "10.0.0.2", 53, b"two")
        w.run()
        assert got == [b"one", b"two"]
        assert w.tracer.get("client.stack.arp_requests") == 1

    def test_responder_learns_requester_address(self):
        w, a, b = make_net_pair()
        b.stack.udp_bind(53, lambda *args: None)
        a.stack.udp_send(9999, "10.0.0.2", 53, b"x")
        w.run()
        assert b.stack.arp_table["10.0.0.1"] == a.stack.mac

    def test_unresolvable_address_drops_after_retries(self):
        w, a, _b = make_net_pair()
        a.stack.udp_send(1, "10.0.0.250", 5, b"void")
        w.run()
        assert w.tracer.get("client.stack.arp_unresolved_drops") == 1
        assert w.tracer.get("client.stack.arp_requests") == 5

    def test_seed_arp_skips_resolution(self):
        w, a, b = make_net_pair()
        a.stack.arp_table["10.0.0.2"] = b.stack.mac
        got = []
        b.stack.udp_bind(7, lambda data, ip, port: got.append(data))
        a.stack.udp_send(7, "10.0.0.2", 7, b"direct")
        w.run()
        assert got == [b"direct"]
        assert w.tracer.get("client.stack.arp_requests") == 0


class TestUdp:
    def test_echo_roundtrip(self):
        w, a, b = make_net_pair()
        replies = []

        def server(data, src_ip, src_port):
            b.stack.udp_send(7, src_ip, src_port, data.upper())

        b.stack.udp_bind(7, server)
        a.stack.udp_bind(7777, lambda data, ip, port: replies.append(data))
        a.stack.udp_send(7777, "10.0.0.2", 7, b"hello")
        w.run()
        assert replies == [b"HELLO"]

    def test_unbound_port_counts_drop(self):
        w, a, b = make_net_pair()
        a.stack.udp_send(1, "10.0.0.2", 1234, b"noone")
        w.run()
        assert w.tracer.get("server.stack.udp_no_listener") == 1

    def test_double_bind_rejected(self):
        _, a, _ = make_net_pair()
        a.stack.udp_bind(80, lambda *a: None)
        with pytest.raises(ValueError):
            a.stack.udp_bind(80, lambda *a: None)

    def test_unbind_then_rebind(self):
        _, a, _ = make_net_pair()
        a.stack.udp_bind(80, lambda *a: None)
        a.stack.udp_unbind(80)
        a.stack.udp_bind(80, lambda *a: None)

    def test_oversized_datagram_rejected(self):
        w, a, b = make_net_pair()
        a.stack.arp_table["10.0.0.2"] = b.stack.mac
        with pytest.raises(PacketError):
            a.stack.udp_send(1, "10.0.0.2", 2, b"x" * 2000)

    def test_wrong_ip_filtered(self):
        w, a, b = make_net_pair()
        got = []
        b.stack.udp_bind(9, lambda data, ip, port: got.append(data))
        # Hand-deliver a frame addressed to b's MAC but the wrong IP.
        from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
        from repro.netstack.ipv4 import Ipv4Packet, PROTO_UDP
        from repro.netstack.udp import UdpDatagram

        datagram = UdpDatagram(1, 9, b"misdelivered")
        packet = Ipv4Packet("10.0.0.1", "10.9.9.9", PROTO_UDP,
                            datagram.pack("10.0.0.1", "10.9.9.9"))
        frame = EthernetFrame(b.stack.mac, a.stack.mac, ETHERTYPE_IPV4, packet.pack())
        b.stack.rx_frame(frame.pack())
        assert got == []
        assert w.tracer.get("server.stack.rx_wrong_ip") == 1


class TestStackCharging:
    def test_rx_and_tx_charge_cpu(self):
        w, a, b = make_net_pair()
        b.stack.udp_bind(7, lambda *args: None)
        a.stack.udp_send(7, "10.0.0.2", 7, b"x")
        w.run()
        # Client sent ARP + UDP (2 tx) and received ARP reply (1 rx).
        c = w.costs
        assert a.host.cpu.busy_ns == 2 * c.user_net_tx_ns + c.user_net_rx_ns

    def test_malformed_frame_counted(self):
        w, a, _b = make_net_pair()
        a.stack.rx_frame(b"\x01")
        assert w.tracer.get("client.stack.rx_malformed") == 1
