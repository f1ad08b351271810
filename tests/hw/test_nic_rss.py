"""Tests for multi-queue RX with receive-side scaling."""

import pytest

from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ipv4 import Ipv4Packet, PROTO_UDP
from repro.netstack.udp import UdpDatagram

from ..conftest import World


def make_rss_pair(n_rx_queues=4):
    from repro.hw.nic import DpdkNic

    w = World()
    a, b = w.add_host("a"), w.add_host("b")
    nic_a = DpdkNic(a, w.fabric, "02:00:00:00:50:01", name="a.dpdk0")
    nic_b = DpdkNic(b, w.fabric, "02:00:00:00:50:02", name="b.dpdk0",
                    n_rx_queues=n_rx_queues)
    return w, nic_a, nic_b


def udp_frame(dst_mac, src_port, dst_port, payload=b"x"):
    datagram = UdpDatagram(src_port, dst_port, payload)
    packet = Ipv4Packet("10.0.0.1", "10.0.0.2", PROTO_UDP,
                        datagram.pack("10.0.0.1", "10.0.0.2"))
    return EthernetFrame(dst_mac, "02:00:00:00:50:01",
                         ETHERTYPE_IPV4, packet.pack()).pack()


class TestRss:
    def test_single_queue_default_unchanged(self):
        w, nic_a, _ = make_rss_pair()
        assert nic_a.n_rx_queues == 1

    def test_zero_queues_rejected(self):
        from repro.hw.nic import DpdkNic
        w = World()
        host = w.add_host("h")
        with pytest.raises(ValueError):
            DpdkNic(host, w.fabric, "02:00:00:00:50:09", n_rx_queues=0)

    def test_same_flow_same_queue(self):
        w, nic_a, nic_b = make_rss_pair()
        for _ in range(8):
            nic_a.post_tx(nic_b.mac, udp_frame(nic_b.mac, 5555, 80))
        w.run()
        occupied = [q for q in range(4) if len(nic_b._rx_rings[q]) > 0]
        assert len(occupied) == 1
        assert len(nic_b._rx_rings[occupied[0]]) == 8

    def test_different_flows_spread_across_queues(self):
        w, nic_a, nic_b = make_rss_pair()
        for src_port in range(5000, 5064):
            nic_a.post_tx(nic_b.mac, udp_frame(nic_b.mac, src_port, 80))
        w.run()
        occupied = [q for q in range(4) if len(nic_b._rx_rings[q]) > 0]
        assert len(occupied) >= 3  # 64 flows land on >= 3 of 4 queues
        assert sum(len(nic_b._rx_rings[q]) for q in range(4)) == 64

    def test_non_ip_traffic_lands_in_queue_zero(self):
        w, nic_a, nic_b = make_rss_pair()
        nic_a.post_tx(nic_b.mac, b"\x00" * 40)  # junk, not IPv4
        w.run()
        assert len(nic_b._rx_rings[0]) == 1
        assert all(len(nic_b._rx_rings[q]) == 0 for q in range(1, 4))

    def test_per_queue_signals_are_independent(self):
        w, nic_a, nic_b = make_rss_pair()
        # Find two flows that hash to different queues.
        flows = {}
        for src_port in range(6000, 6100):
            frame = udp_frame(nic_b.mac, src_port, 80)
            queue = nic_b._rss_queue(frame)
            flows.setdefault(queue, src_port)
            if len(flows) >= 2:
                break
        (q1, port1), (q2, port2) = list(flows.items())[:2]
        woken = []

        def poller(queue):
            yield nic_b.rx_signal(queue)
            woken.append((queue, w.sim.now))

        w.sim.spawn(poller(q1))
        w.sim.spawn(poller(q2))
        nic_a.post_tx(nic_b.mac, udp_frame(nic_b.mac, port1, 80))
        w.run()
        # Only the queue that received traffic woke its poller.
        assert [q for q, _t in woken] == [q1]

    def test_per_queue_counters(self):
        w, nic_a, nic_b = make_rss_pair()
        frame = udp_frame(nic_b.mac, 7777, 80)
        queue = nic_b._rss_queue(frame)
        nic_a.post_tx(nic_b.mac, frame)
        w.run()
        assert w.tracer.get("b.dpdk0.rxq%d_frames" % queue) == 1


class TestMultiCoreScaling:
    def test_four_pollers_drain_in_parallel(self):
        """N cores each polling their own ring: the multi-core recipe."""
        w, nic_a, nic_b = make_rss_pair()
        host_b = w.hosts["b"]
        drained = {q: [] for q in range(4)}

        def poller(queue, core):
            while sum(len(v) for v in drained.values()) < 64:
                yield nic_b.rx_signal(queue)
                yield core.busy(w.costs.dpdk_poll_ns)
                for frame in nic_b.rx_burst(32, queue=queue):
                    yield core.busy(w.costs.user_net_rx_ns)
                    drained[queue].append(frame)

        for q in range(4):
            w.sim.spawn(poller(q, host_b.cpus[q]))
        for src_port in range(5000, 5064):
            nic_a.post_tx(nic_b.mac, udp_frame(nic_b.mac, src_port, 80))
        w.run(until=10_000_000)
        assert sum(len(v) for v in drained.values()) == 64
        # Work actually spread across cores:
        busy_cores = [c for c in host_b.cpus.cores if c.busy_ns > 0]
        assert len(busy_cores) >= 3
