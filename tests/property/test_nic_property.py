"""Property tests: the kernel NIC's NAPI poll and coalescing window.

Over random arrival gaps, per-frame softirq charges and a coalescing
window of 0 or 20 us, every frame reaches the IRQ handler exactly once
and in arrival order, no frame pays more than one interrupt, and a frame
that lands on an idle IRQ core with no window open always interrupts.

Iteration count: ``FAULT_PROPERTY_EXAMPLES`` (default 50), shared with
the fault properties; CI's non-blocking chaos job raises it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.nic import KernelNic

from ..conftest import World
from .test_faults_property import EXAMPLES

#: (gap before the frame is sent, softirq ns its handler charges)
frames = st.lists(st.tuples(st.integers(0, 30_000), st.integers(0, 10_000)),
                  min_size=1, max_size=20)


@given(frames, st.sampled_from([0, 20_000]))
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
def test_every_frame_once_in_order_and_idle_arrivals_interrupt(frames,
                                                               coalesce_ns):
    w = World()
    a, b = w.add_host("a"), w.add_host("b")
    nic_a = KernelNic(a, w.fabric, "02:00:00:00:80:01", name="a.eth0")
    nic_b = KernelNic(b, w.fabric, "02:00:00:00:80:02", name="b.eth0")
    nic_b.coalesce_ns = coalesce_ns
    charges = {}
    got = []

    def handler(frame):
        got.append(frame)
        nic_b.irq_core.charge_async(charges[frame])

    nic_b.irq_handler = handler
    arrived = []
    rx_ready = nic_b._rx_ready

    def observed_rx_ready(frame):
        # Decide before the NIC does whether this frame must interrupt.
        now = w.sim.now
        must_interrupt = (nic_b.irq_core.free_at <= now
                          and now >= nic_b._window_ends_at)
        before = w.tracer.get("b.eth0.rx_interrupts")
        arrived.append(frame)
        rx_ready(frame)
        if must_interrupt:
            assert w.tracer.get("b.eth0.rx_interrupts") == before + 1, (
                "frame %r landed on an idle core with no window open but "
                "did not interrupt" % frame)

    nic_b._rx_ready = observed_rx_ready
    at = 0
    for i, (gap, charge) in enumerate(frames):
        frame = b"f%d" % i
        charges[frame] = charge
        at += gap
        w.sim.call_in(at, nic_a.post_tx, nic_b.mac, frame)
    w.run()

    assert got == arrived == list(charges)
    rx_frames = w.tracer.get("b.eth0.rx_frames")
    polled = w.tracer.get("b.eth0.rx_polled")
    assert rx_frames == len(frames)
    assert w.tracer.get("b.eth0.rx_interrupts") <= rx_frames - polled
