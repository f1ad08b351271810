"""Smoke tests for the testbed builders (what examples/benches rely on)."""

from repro.testbed import (
    NetHost,
    World,
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_mtcp_pair,
    make_net_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
    make_rmem_world,
    make_spdk_libos,
)


class TestWorld:
    def test_hosts_share_fabric_and_tracer(self):
        w = World()
        a = w.add_host("a")
        b = w.add_host("b")
        assert a.tracer is b.tracer is w.tracer
        assert a.mm is not None and b.mm is not None

    def test_add_devices(self):
        w = World()
        host = w.add_host("h")
        nic = w.add_dpdk(host)
        rnic = w.add_rdma(host)
        nvme = w.add_nvme(host)
        assert host.nics == [nic, rnic]
        assert host.nvme is nvme
        # Transparent registration wired both NICs into the manager.
        assert len(host.mm.devices) == 2

    def test_run_returns_time(self):
        w = World()
        w.sim.call_in(500, lambda: None)
        assert w.run() == 500


class TestBuilders:
    def test_kernel_pair_distinct_stacks(self):
        w, ka, kb = make_kernel_pair()
        assert ka.stack.ip != kb.stack.ip
        assert ka.host is not kb.host

    def test_net_pair_hosts_attached(self):
        w, a, b = make_net_pair()
        assert isinstance(a, NetHost) and isinstance(b, NetHost)
        assert a.stack.ip == "10.0.0.1"

    def test_second_net_pair_puts_the_same_frames_on_the_wire(self):
        """A run is a pure function of its seed, not of how many worlds
        the process built before it: MACs are numbered per world."""
        def frames_of_one_exchange(seed):
            w, a, b = make_net_pair(seed=seed)
            frames = []
            transmit = w.fabric.transmit

            def recording(src, dst, frame, nbytes):
                frames.append((w.sim.now, src, dst, bytes(frame)))
                return transmit(src, dst, frame, nbytes)

            w.fabric.transmit = recording
            b.stack.udp_bind(53, lambda data, ip, port:
                             b.stack.udp_send(53, ip, port, data))
            a.stack.udp_send(9999, "10.0.0.2", 53, b"query")
            w.run()
            return (a.stack.mac, b.stack.mac), frames

        first, second = frames_of_one_exchange(7), frames_of_one_exchange(7)
        assert first[0] == ("02:00:00:00:00:01", "02:00:00:00:00:02")
        assert len(first[1]) >= 4  # ARP who-has / is-at, query, reply
        assert first == second

    def test_dpdk_pair_offload_flag(self):
        _w, client, server = make_dpdk_libos_pair(with_offload=True)
        assert client.offload_engine is not None
        assert server.offload_engine is not None
        _w2, client2, _server2 = make_dpdk_libos_pair()
        assert client2.offload_engine is None

    def test_posix_pair_shares_kernel_host(self):
        _w, la, lb = make_posix_libos_pair()
        assert la.kernel.host is la.host
        assert lb.kernel.host is lb.host

    def test_rdma_pair_shares_cm(self):
        _w, la, lb = make_rdma_libos_pair()
        assert la.cm is lb.cm

    def test_spdk_libos_has_device(self):
        _w, libos = make_spdk_libos()
        assert libos.nvme is libos.host.nvme

    def test_mtcp_pair_separate_cores(self):
        _w, ca, _cb = make_mtcp_pair()
        assert ca.app_core is not ca.stack_core

    def test_rmem_world_roles(self):
        w, producer, consumer, memnode = make_rmem_world()
        assert memnode.name == "memnode"
        assert producer.ring.base_addr == consumer.ring.base_addr
        # The ring's arena is registered with the memnode's NIC.
        nic = memnode.nics[0]
        nic.iommu.translate(producer.ring.base_addr, 64)
