"""Tests for CPU cores and the cost model."""

import pytest

from repro.sim.costs import DEFAULT_COSTS, CostModel, fast_network_profile
from repro.sim.cpu import Core, CpuSet
from repro.sim.engine import Interrupt, Simulator


class TestCore:
    def test_busy_advances_time(self):
        sim = Simulator()
        core = Core(sim)

        def work():
            yield core.busy(300)
            return sim.now

        p = sim.spawn(work())
        sim.run()
        assert p.value == 300

    def test_contention_serializes_fifo(self):
        sim = Simulator()
        core = Core(sim)
        done = {}

        def work(name, ns):
            yield core.busy(ns)
            done[name] = sim.now

        sim.spawn(work("a", 100))
        sim.spawn(work("b", 50))
        sim.run()
        # b queued behind a on the same core
        assert done == {"a": 100, "b": 150}

    def test_two_cores_run_in_parallel(self):
        sim = Simulator()
        cpus = CpuSet(sim, 2)
        done = {}

        def work(name, core, ns):
            yield core.busy(ns)
            done[name] = sim.now

        sim.spawn(work("a", cpus[0], 100))
        sim.spawn(work("b", cpus[1], 100))
        sim.run()
        assert done == {"a": 100, "b": 100}

    def test_busy_accounting(self):
        sim = Simulator()
        core = Core(sim)

        def work():
            yield core.busy(100)
            yield sim.timeout(900)

        sim.spawn(work())
        sim.run()
        assert core.busy_ns == 100
        assert core.utilization() == pytest.approx(0.1)

    def test_negative_charge_rejected(self):
        sim = Simulator()
        core = Core(sim)
        with pytest.raises(ValueError):
            core.busy(-5)

    @pytest.mark.parametrize("method", ["busy", "charge_async", "charge_retro"])
    def test_every_charge_shares_one_validation(self, method):
        # charge_async used to take a negative charge and silently rewind
        # busy_ns and the free horizon; all three now refuse it, and all
        # three truncate a float to whole nanoseconds.
        sim = Simulator()
        core = Core(sim)
        charge = getattr(core, method)
        charge(100)
        with pytest.raises(ValueError, match="negative CPU charge -5"):
            charge(-5)
        with pytest.raises(ValueError):
            charge(-1.5)
        assert core.busy_ns == 100
        assert core._free_at == (0 if method == "charge_retro" else 100)
        charge(2.9)
        assert core.busy_ns == 102 and isinstance(core.busy_ns, int)
        assert isinstance(core._free_at, int)

    def test_an_interrupted_charge_resumes_once_and_keeps_its_cost(self):
        # A charge is a sleep on one heap entry: the interrupt withdraws
        # it, so nothing wakes the process at 1000 and the clock stops
        # where the last live event was.
        sim = Simulator()
        core = Core(sim)
        resumes = []

        def work():
            try:
                yield core.busy(1000)
                resumes.append(("woke", sim.now))
            except Interrupt as intr:
                resumes.append((intr.cause, sim.now))
            yield sim.completion("never")
            resumes.append(("woke again", sim.now))

        p = sim.spawn(work())
        sim.call_in(300, p.interrupt, "crash")
        assert sim.run() == 300
        assert resumes == [("crash", 300)]
        assert core.busy_ns == 1000 and core.free_at == 1000

    def test_a_zero_charge_keeps_its_place_among_same_instant_events(self):
        # busy(0) resumes the process after what was scheduled for the
        # instant before the yield, and before what was scheduled after.
        sim = Simulator()
        core = Core(sim)
        order = []

        def charging():
            sim.call_in(0, order.append, "before")
            yield core.busy(0)
            order.append("charged")

        def later():
            sim.call_in(0, order.append, "after")
            yield sim.timeout(0)

        sim.spawn(charging())
        sim.spawn(later())
        sim.run()
        assert order == ["before", "charged", "after"]
        assert sim.now == 0

    def test_charge_async_accumulates_without_waiter(self):
        sim = Simulator()
        core = Core(sim)
        core.charge_async(500)
        assert core.busy_ns == 500
        assert core._free_at == 500

    def test_cpuset_requires_a_core(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CpuSet(sim, 0)


class TestCostModel:
    def test_copy_cost_matches_paper_rate(self):
        # The paper: copying a 4KB page takes ~1us on a 4GHz CPU.
        c = DEFAULT_COSTS
        assert c.copy_ns(4096) == pytest.approx(1000, abs=c.copy_base_ns + 1)

    def test_copy_cost_scales_linearly(self):
        c = DEFAULT_COSTS
        small = c.copy_ns(4096)
        big = c.copy_ns(4096 * 8)
        assert big - c.copy_base_ns == pytest.approx(8 * (small - c.copy_base_ns))

    def test_copy_of_nothing_is_free(self):
        assert DEFAULT_COSTS.copy_ns(0) == 0

    def test_dma_has_base_plus_per_byte(self):
        c = DEFAULT_COSTS
        assert c.dma_ns(0) == c.dma_base_ns
        assert c.dma_ns(10000) > c.dma_ns(100)

    def test_wire_time_includes_propagation(self):
        c = DEFAULT_COSTS
        assert c.wire_ns(0) == c.link_latency_ns
        assert c.wire_ns(1500) == c.link_latency_ns + int(1500 * c.link_ns_per_byte)

    def test_registration_region_cheaper_than_per_buffer_at_scale(self):
        c = DEFAULT_COSTS
        # One big region registration vs 1000 per-buffer registrations.
        region = c.registration_ns(4096 * 1000)
        buffers = 1000 * c.registration_ns(4096, per_buffer=True)
        assert region < buffers / 5

    def test_nvme_write_faster_than_read(self):
        c = DEFAULT_COSTS
        assert c.nvme_io_ns(4096, write=True) < c.nvme_io_ns(4096, write=False)

    def test_with_overrides_does_not_mutate_original(self):
        c = CostModel()
        c2 = c.with_overrides(syscall_ns=999)
        assert c2.syscall_ns == 999
        assert c.syscall_ns == DEFAULT_COSTS.syscall_ns

    def test_profiles_differ(self):
        assert fast_network_profile().link_latency_ns < DEFAULT_COSTS.link_latency_ns

    def test_as_dict_roundtrip(self):
        d = DEFAULT_COSTS.as_dict()
        assert d["syscall_ns"] == DEFAULT_COSTS.syscall_ns
        assert "copy_page_ns" in d

    def test_kernel_stack_slower_than_user_stack(self):
        # The structural premise of the paper.
        c = DEFAULT_COSTS
        assert c.kernel_net_tx_ns > 3 * c.user_net_tx_ns
        assert c.kernel_net_rx_ns > 3 * c.user_net_rx_ns
