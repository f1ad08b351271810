"""Tests for the IOMMU and the offload engine."""

import pytest

from repro.hw.iommu import Iommu, IommuFault
from repro.hw.offload import ALL_OFFLOADS, OffloadEngine
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.trace import Tracer


class TestIommu:
    def test_map_then_translate(self):
        iommu = Iommu(Tracer())
        iommu.map(0x1000, 0x1000)
        iommu.translate(0x1800, 16)  # inside

    def test_unmapped_address_faults(self):
        iommu = Iommu(Tracer())
        with pytest.raises(IommuFault):
            iommu.translate(0x1000, 16)

    def test_range_straddling_region_edge_faults(self):
        iommu = Iommu(Tracer())
        iommu.map(0x1000, 0x100)
        with pytest.raises(IommuFault):
            iommu.translate(0x10F0, 0x20)

    def test_unmap_revokes_access(self):
        iommu = Iommu(Tracer())
        handle = iommu.map(0x1000, 0x1000)
        iommu.unmap(handle)
        with pytest.raises(IommuFault):
            iommu.translate(0x1000, 8)

    def test_unmap_unknown_handle_raises(self):
        iommu = Iommu(Tracer())
        with pytest.raises(KeyError):
            iommu.unmap(99)

    def test_empty_map_rejected(self):
        iommu = Iommu(Tracer())
        with pytest.raises(ValueError):
            iommu.map(0x1000, 0)

    def test_fault_counter_increments(self):
        tracer = Tracer()
        iommu = Iommu(tracer, "dev.iommu")
        with pytest.raises(IommuFault):
            iommu.translate(0, 1)
        assert tracer.get("dev.iommu.faults") == 1

    def test_mapped_accounting(self):
        iommu = Iommu(Tracer())
        iommu.map(0x1000, 100)
        iommu.map(0x4000, 200)
        assert iommu.mapped_ranges == 2
        assert iommu.covers(0x4000, 200) and not iommu.covers(0x4000, 201)


def make_host():
    sim = Simulator()
    return sim, Host(sim, "h0")


class TestOffloadEngine:
    def test_default_supports_everything(self):
        _, host = make_host()
        eng = OffloadEngine(host)
        for op in ALL_OFFLOADS:
            assert eng.supports(op)

    def test_restricted_capabilities(self):
        _, host = make_host()
        eng = OffloadEngine(host)
        eng.capabilities = frozenset({"filter"})
        assert eng.supports("filter")
        assert not eng.supports("map")

    def test_run_charges_device_not_cpu(self):
        sim, host = make_host()
        eng = OffloadEngine(host)

        def proc():
            result = yield eng.run("filter", lambda x: x % 2 == 0, 4)
            return (result, sim.now)

        p = sim.spawn(proc())
        sim.run()
        result, when = p.value
        assert result is True
        assert when == eng.element_ns
        assert host.cpu.busy_ns == 0  # zero host CPU: the point of offload
        assert eng.device_busy_ns == eng.element_ns

    def test_run_unsupported_operator_raises(self):
        _, host = make_host()
        eng = OffloadEngine(host)
        eng.capabilities = frozenset({"map"})
        with pytest.raises(ValueError):
            eng.run("sort", lambda x: x, 1)

    def test_device_pipeline_serializes(self):
        sim, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 100
        done_at = []

        def proc(i):
            yield eng.run("map", lambda x: x, i)
            done_at.append(sim.now)

        sim.spawn(proc(0))
        sim.spawn(proc(1))
        sim.run()
        assert done_at == [100, 200]

    def test_run_now_returns_value_and_accounts_time(self):
        _, host = make_host()
        eng = OffloadEngine(host)
        eng.element_ns = 150
        assert eng.run_now("filter", lambda x: x > 5, 9) is True
        assert eng.device_busy_ns == 150

    def test_attach_to_nic_like_object(self):
        _, host = make_host()
        eng = OffloadEngine(host)

        class FakeNic:
            offload = None

        nic = FakeNic()
        eng.attach(nic)
        assert nic.offload is eng
