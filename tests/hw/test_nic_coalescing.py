"""Tests for the kernel NIC's NAPI poll and interrupt coalescing."""

from ..conftest import World


def make_pair(coalesce_ns=0):
    from repro.hw.nic import KernelNic

    w = World()
    a, b = w.add_host("a"), w.add_host("b")
    nic_a = KernelNic(a, w.fabric, "02:00:00:00:80:01", name="a.eth0")
    nic_b = KernelNic(b, w.fabric, "02:00:00:00:80:02", name="b.eth0")
    nic_b.coalesce_ns = coalesce_ns
    return w, nic_a, nic_b


def softirq_handler(w, nic, got):
    """An IRQ handler that charges the stack's receive work on the IRQ
    core, as ``NetStack.rx_frame`` does, so a NAPI poll lasts until it
    is done."""
    def handle(frame):
        got.append(frame)
        nic.irq_core.charge_async(w.costs.kernel_net_rx_ns)
    return handle


class TestCoalescing:
    def test_disabled_by_default_a_burst_is_one_interrupt_then_polled(self):
        w, nic_a, nic_b = make_pair()
        got = []
        nic_b.irq_handler = softirq_handler(w, nic_b, got)
        for i in range(5):
            nic_a.post_tx(nic_b.mac, b"f%d" % i)
        w.run()
        assert got == [b"f%d" % i for i in range(5)]
        # The first frame's interrupt starts a poll that takes the rest.
        assert w.tracer.get("b.eth0.rx_interrupts") == 1
        assert w.tracer.get("b.eth0.rx_polled") == 4
        assert w.tracer.get("b.eth0.rx_coalesced") == 0

    def test_burst_within_window_coalesces(self):
        w, nic_a, nic_b = make_pair(coalesce_ns=50_000)
        got = []
        nic_b.irq_handler = softirq_handler(w, nic_b, got)
        for i in range(5):
            nic_a.post_tx(nic_b.mac, b"f%d" % i)
        # The poll over the first burst ends near 19 us; the second
        # burst lands after it, inside the window, and is parked.
        for i in range(5, 10):
            w.sim.call_in(25_000, nic_a.post_tx, nic_b.mac, b"f%d" % i)
        w.run()
        assert len(got) == 10  # everything still delivered
        # The first burst is one interrupt plus four polled frames; the
        # second flushes under one more interrupt at the window's end.
        assert w.tracer.get("b.eth0.rx_interrupts") == 2
        assert w.tracer.get("b.eth0.rx_polled") == 4
        assert w.tracer.get("b.eth0.rx_coalesced") == 5

    def test_coalesced_frames_delayed_to_window_end(self):
        w, nic_a, nic_b = make_pair(coalesce_ns=50_000)
        arrivals = []
        nic_b.irq_handler = lambda f: arrivals.append(w.sim.now)
        nic_a.post_tx(nic_b.mac, b"first")
        # Lands after the first interrupt's poll (interrupt_ns) is over.
        w.sim.call_in(10_000, nic_a.post_tx, nic_b.mac, b"second")
        w.run()
        # The second frame waited for the window boundary.
        assert arrivals[1] - arrivals[0] >= 40_000
        assert w.tracer.get("b.eth0.rx_polled") == 0

    def test_link_flap_ends_the_poll(self):
        w, nic_a, nic_b = make_pair()
        got = []

        def long_softirq(frame):
            got.append(frame)
            nic_b.irq_core.charge_async(100_000)

        nic_b.irq_handler = long_softirq
        nic_a.post_tx(nic_b.mac, b"before")
        w.sim.call_in(10_000, nic_b.link_fail)
        w.sim.call_in(11_000, nic_b.link_recover)
        # Lands while the IRQ core is still busy with the first frame's
        # softirq, but the flap ended that poll: it interrupts.
        w.sim.call_in(12_000, nic_a.post_tx, nic_b.mac, b"after")
        w.run()
        assert got == [b"before", b"after"]
        assert w.tracer.get("b.eth0.rx_interrupts") == 2
        assert w.tracer.get("b.eth0.rx_polled") == 0

    def test_spaced_frames_each_interrupt(self):
        w, nic_a, nic_b = make_pair(coalesce_ns=10_000)
        got = []
        nic_b.irq_handler = got.append
        for i in range(3):
            w.sim.call_in(i * 1_000_000, nic_a.post_tx, nic_b.mac, b"f")
        w.run()
        assert len(got) == 3
        assert w.tracer.get("b.eth0.rx_interrupts") == 3
        assert w.tracer.get("b.eth0.rx_coalesced") == 0

    def test_sustained_stream_keeps_flushing(self):
        w, nic_a, nic_b = make_pair(coalesce_ns=20_000)
        got = []
        nic_b.irq_handler = got.append
        for i in range(30):
            w.sim.call_in(i * 5_000, nic_a.post_tx, nic_b.mac, b"f%d" % i)
        w.run()
        assert len(got) == 30
        interrupts = w.tracer.get("b.eth0.rx_interrupts")
        # Far fewer interrupts than frames, but enough flushes to deliver.
        assert 1 < interrupts < 15
