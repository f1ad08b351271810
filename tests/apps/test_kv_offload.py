"""End-to-end tests for the NIC-resident KV GET path (claim C6).

A :class:`KvNicOffload` program installed on the server's programmable
NIC parses UDP KV requests in the RX pipeline: short GETs are answered
entirely on the device (zero host CPU), PUTs and oversized values are
steered to the owning shard's RX queue, and everything else punts to the
normal RSS path untouched.
"""

import pytest

from repro.apps.kvstore import (OP_GET, OP_PUT, KvNicOffload, UdpKvServer,
                                demi_kv_client, op_request)
from repro.apps.proto.legacy import LegacyKvCodec
from repro.experiments import ExperimentSpec
from repro.experiments.workloads import run_spec

from ..conftest import make_dpdk_libos_pair


def run_kv(ops, with_program=True, port=6379):
    w, client, server = make_dpdk_libos_pair(with_offload=True)
    srv = UdpKvServer(server, port=port)
    prog = None
    if with_program:
        prog = KvNicOffload(server.nic, srv.engine, server.ip, port=port)
        prog.install()
    w.sim.spawn(srv.run(), name="server")

    cproc = w.sim.spawn(
        demi_kv_client(client, server.ip, ops, port=port, proto="udp"),
        name="client")
    w.sim.run_until_complete(cproc, limit=10**12)
    srv.stop()
    w.sim.run(until=w.sim.now + 5_000_000)
    results, stats = cproc.value
    return w, client, server, srv, server.nic.offload.counters, results


class TestNicGetPath:
    def test_gets_answered_on_device_with_correct_values(self):
        ops = ([(OP_PUT, b"k%d" % i, b"value-%d" % i) for i in range(4)]
               + [(OP_GET, b"k%d" % i, None) for i in range(4)])
        w, client, server, srv, kv, results = run_kv(ops)
        gets = [r for r in results if r is not None]
        assert gets == [(True, b"value-%d" % i) for i in range(4)]
        assert kv.offload_kv_hits == 4
        # The host never saw the GETs - only the 4 PUTs.
        assert srv.requests_served == 4
        assert kv.offload_kv_steered == 4

    def test_empty_value_answered_on_device(self):
        w, client, server, srv, kv, results = run_kv(
            [(OP_PUT, b"k", b""), (OP_GET, b"k", None)])
        assert results[1] == (True, b"")
        assert kv.offload_kv_hits == 1

    def test_missing_key_answered_on_device(self):
        w, client, server, srv, kv, results = run_kv(
            [(OP_GET, b"nope", None)])
        assert results == [(False, None)]
        assert kv.offload_kv_misses == 1
        assert srv.requests_served == 0

    def test_host_cpu_drops_with_program_installed(self):
        ops = ([(OP_PUT, b"k", b"v" * 64)]
               + [(OP_GET, b"k", None)] * 50)
        _, _, server_off, _, _, r1 = run_kv(ops, with_program=True)
        _, _, server_host, _, _, r2 = run_kv(ops, with_program=False)
        assert r1 == r2  # same answers either way
        assert server_off.core.busy_ns < server_host.core.busy_ns / 2

    def test_oversized_values_steer_to_host(self):
        w, client, server, srv, kv, results = run_kv(
            [(OP_PUT, b"big", b"x" * 1400), (OP_GET, b"big", None)])
        assert results[-1] == (True, b"x" * 1400)
        assert kv.offload_kv_hits == 0  # too big to inline on the NIC
        assert kv.offload_kv_steered == 2  # the PUT and the punted GET
        assert srv.requests_served == 2

    def test_qtoken_ledger_closes_on_both_sides(self):
        ops = ([(OP_PUT, b"k", b"v")] + [(OP_GET, b"k", None)] * 10)
        w, client, server, srv, _kv, _ = run_kv(ops)
        for libos in (client, server):
            qt = libos.qtokens
            assert qt.in_flight == 0
            assert qt.created == qt.completed + qt.cancelled + qt.in_flight

    def test_non_kv_traffic_punts_to_host_unharmed(self):
        """A second UDP flow on another port coexists with the program."""
        w, client, server = make_dpdk_libos_pair(with_offload=True)
        srv = UdpKvServer(server, port=6379)
        prog = KvNicOffload(server.nic, srv.engine, server.ip, port=6379)
        prog.install()

        def echo_server():
            qd = yield from server.socket("udp")
            yield from server.bind(qd, 7000)
            result = yield from server.blocking_pop(qd)
            token = server.push_to(qd, result.sga, result.value)
            yield from server.qtokens.wait(token)

        def sender():
            qd = yield from client.socket("udp")
            yield from client.connect(qd, server.ip, 7000)
            yield from client.blocking_push(qd, client.sga_alloc(b"ping"))
            result = yield from client.blocking_pop(qd)
            return result.sga.tobytes()

        w.sim.spawn(echo_server(), name="echo")
        p = w.sim.spawn(sender(), name="sender")
        w.sim.run_until_complete(p, limit=10**12)
        assert p.value == b"ping"
        kv = server.nic.offload.counters
        assert kv.offload_kv_punts > 0  # the foreign-port frames went to RSS
        assert kv.offload_kv_hits == kv.offload_kv_misses \
            == kv.offload_kv_steered == 0


class TestStop:
    def test_stop_with_a_datagram_already_queued(self):
        # stop() lands while the first of two queued datagrams is in
        # service: the pop the server re-arms afterwards is complete at
        # once, and a completed token is retired, never cancelled.
        w, client, server = make_dpdk_libos_pair(with_offload=True)
        srv = UdpKvServer(server, port=6379)
        serve = srv._serve

        def serve_then_stop(qd, result):
            srv.stop()
            yield from serve(qd, result)

        srv._serve = serve_then_stop
        proc = w.sim.spawn(srv.run(), name="server")

        def two_puts():
            codec = LegacyKvCodec()
            qd = yield from client.socket("udp")
            yield from client.connect(qd, server.ip, 6379)
            tokens = [client.push(qd, client.sga_alloc(codec.encode_request(
                op_request(OP_PUT, key, b"v")))) for key in (b"a", b"b")]
            yield from client.wait_all(tokens)

        w.sim.run_until_complete(w.sim.spawn(two_puts()), limit=10**12)
        assert w.sim.run_until_complete(proc, limit=w.sim.now + 10**7) == 1
        qt = server.qtokens
        assert qt.cancelled == 0, "the second datagram was not queued yet"
        assert qt.in_flight == 0 and len(qt._pending) == 0 and qt.identity_ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_server_stops_under_a_duplicating_plan(self, seed):
        # Still ``ok: false`` for the GET counts (UDP has no dedup and the
        # closed-loop client mis-pairs replies); stopping must not add to it.
        row = run_spec(ExperimentSpec("kv-offload", libos="dpdk",
                                      fault_plan="reorder-dup-storm",
                                      seed=seed))
        assert not [f for f in row["failures"] if "failed to stop" in f]


class TestInstallationGuards:
    def test_program_requires_offload_engine(self):
        w, client, server = make_dpdk_libos_pair(with_offload=False)
        srv = UdpKvServer(server, port=6379)
        with pytest.raises(ValueError):
            KvNicOffload(server.nic, srv.engine, server.ip)

    def test_install_rx_program_requires_offload_engine(self):
        w, client, server = make_dpdk_libos_pair(with_offload=False)
        with pytest.raises(ValueError):
            server.nic.install_rx_program(lambda frame: None)

    def test_uninstall_restores_host_path(self):
        ops = [(OP_PUT, b"k", b"v"), (OP_GET, b"k", None)]
        w, client, server = make_dpdk_libos_pair(with_offload=True)
        srv = UdpKvServer(server, port=6379)
        prog = KvNicOffload(server.nic, srv.engine, server.ip, port=6379)
        prog.install()
        server.nic.install_rx_program(None)
        w.sim.spawn(srv.run(), name="server")

        p = w.sim.spawn(demi_kv_client(client, server.ip, ops, proto="udp"),
                        name="client")
        w.sim.run_until_complete(p, limit=10**12)
        srv.stop()
        w.sim.run(until=w.sim.now + 5_000_000)
        results, _stats = p.value
        assert results[-1] == (True, b"v")
        assert server.nic.offload.counters.offload_kv_hits == 0
        assert srv.requests_served == 2  # everything back on the host
