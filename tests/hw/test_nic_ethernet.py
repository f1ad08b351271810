"""Tests for the DPDK-class and kernel-class ethernet NICs."""

import pytest

from repro.hw.iommu import IommuFault

from ..conftest import World, add_kernel_nic


def two_dpdk_hosts():
    w = World()
    a = w.add_host("a")
    b = w.add_host("b")
    nic_a = w.add_dpdk(a)
    nic_b = w.add_dpdk(b)
    return w, nic_a, nic_b


class TestDpdkNic:
    def test_frame_delivery_to_rx_ring(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        nic_a.post_tx(nic_b.mac, b"frame-1")
        w.run()
        assert nic_b.rx_burst() == [b"frame-1"]

    def test_rx_burst_respects_limit(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        for i in range(10):
            nic_a.post_tx(nic_b.mac, b"f%d" % i)
        w.run()
        first = nic_b.rx_burst(max_frames=4)
        assert len(first) == 4
        assert len(nic_b._rx_rings[0]) == 6

    def test_rx_ring_overflow_drops(self):
        w = World()
        a, b = w.add_host("a"), w.add_host("b")
        nic_a = w.add_dpdk(a)
        nic_b = w.add_dpdk(b)
        nic_b.rx_ring_size = 4
        for i in range(8):
            nic_a.post_tx(nic_b.mac, b"x")
        w.run()
        assert len(nic_b._rx_rings[0]) == 4
        assert w.tracer.get("b.dpdk0.rx_ring_drops") == 4

    def test_rx_signal_wakes_waiter(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        got = []

        def poller():
            yield nic_b.rx_signal()
            got.extend(nic_b.rx_burst())

        w.sim.spawn(poller())
        w.sim.call_in(1000, nic_a.post_tx, nic_b.mac, b"late")
        w.run()
        assert got == [b"late"]

    def test_rx_signal_immediate_when_pending(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        nic_a.post_tx(nic_b.mac, b"f")
        w.run()
        sig = nic_b.rx_signal()
        assert sig.triggered

    def test_tx_latency_includes_dma_and_wire(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        arrive = []

        def poller():
            yield nic_b.rx_signal()
            arrive.append(w.sim.now)

        w.sim.spawn(poller())
        frame = b"z" * 1000
        nic_a.post_tx(nic_b.mac, frame)
        w.run()
        c = w.costs
        expected = (
            c.dma_ns(1000) + c.nic_process_ns       # tx device path
            + c.wire_ns(1000)                        # fabric
            + c.nic_process_ns + c.dma_ns(1000)      # rx device path
        )
        assert arrive[0] == expected

    def test_iommu_validation_on_tx(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        with pytest.raises(IommuFault):
            nic_a.post_tx(nic_b.mac, b"data", dma_addrs=[(0xBAD, 4)])

    def test_registered_memory_tx_allowed(self):
        w, nic_a, nic_b = two_dpdk_hosts()
        host_a = w.hosts["a"]
        buf = host_a.mm.alloc(64)  # transparent registration covers it
        nic_a.post_tx(nic_b.mac, b"data", dma_addrs=[(buf.addr, 64)])
        w.run()
        assert len(nic_b._rx_rings[0]) == 1


class TestKernelNic:
    def test_rx_invokes_irq_handler(self):
        w = World()
        a, b = w.add_host("a"), w.add_host("b")
        nic_a = add_kernel_nic(w, a)
        nic_b = add_kernel_nic(w, b)
        got = []
        nic_b.irq_handler = got.append
        nic_a.post_tx(nic_b.mac, b"pkt")
        w.run()
        assert got == [b"pkt"]

    def test_rx_charges_interrupt_cost_on_core(self):
        w = World()
        a, b = w.add_host("a"), w.add_host("b")
        nic_a = add_kernel_nic(w, a)
        nic_b = add_kernel_nic(w, b)
        nic_b.irq_handler = lambda f: None
        nic_a.post_tx(nic_b.mac, b"pkt")
        w.run()
        assert b.cpus[0].busy_ns == w.costs.interrupt_ns

    def test_rx_without_handler_drops(self):
        w = World()
        a, b = w.add_host("a"), w.add_host("b")
        nic_a = add_kernel_nic(w, a)
        nic_b = add_kernel_nic(w, b)
        nic_a.post_tx(nic_b.mac, b"pkt")
        w.run()
        assert w.tracer.get("b.eth0.rx_no_handler_drops") == 1
