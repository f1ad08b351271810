"""Shared fixtures: the simulation builders live in repro.testbed; the
bare-netstack world only the netstack tests build lives here."""

import pytest

from repro.hw.nic import KernelNic
from repro.netstack.stack import NetStack
from repro.testbed import (  # noqa: F401 - re-exported for test modules
    World,
    make_dpdk_libos_pair,
    make_kernel_pair,
    make_mtcp_pair,
    make_posix_libos_pair,
    make_rdma_libos_pair,
    make_spdk_libos,
)


class NetHost:
    """A host with a DPDK NIC, a bare user-level NetStack, and an RX poll
    loop that hands the stack one frame at a time - no libOS."""

    def __init__(self, world, name, ip):
        self.world = world
        self.host = world.add_host(name)
        # Numbered by the world, not the process: a run is a pure
        # function of its seed however many worlds came before it.
        mac = "02:00:00:00:00:%02x" % len(world.hosts)
        self.nic = world.add_dpdk(self.host, mac=mac)
        costs = world.costs
        self.stack = NetStack(
            sim=world.sim,
            name="%s.stack" % name,
            mac=mac,
            ip=ip,
            send_frame=lambda dst, raw: self.nic.post_tx(dst, raw),
            tracer=world.tracer,
            charge=self.host.cpu.charge_async,
            tx_cost_ns=costs.user_net_tx_ns,
            rx_cost_ns=costs.user_net_rx_ns,
        )
        world.sim.spawn(self._poll_loop(), name="%s.rxpoll" % name)

    def _poll_loop(self):
        while True:
            yield self.nic.rx_signal()
            for frame in self.nic.rx_burst(64):
                self.stack.rx_frame(frame)


def make_net_pair(drop_rate=0.0, seed=42, telemetry=False):
    """Two raw NetStack hosts: (world, client NetHost, server NetHost)."""
    w = World(drop_rate=drop_rate, seed=seed, telemetry=telemetry)
    a = NetHost(w, "client", "10.0.0.1")
    b = NetHost(w, "server", "10.0.0.2")
    return w, a, b


def add_kernel_nic(world, host):
    """A bare interrupt-driven NIC on *host*, no kernel behind it."""
    nic = KernelNic(host, world.fabric, "%s-eth" % host.name,
                    name="%s.eth0" % host.name)
    host.nics.append(nic)
    return nic


def record_spawns(sim):
    """Every process *sim* spawns from now on, appended to the list this
    returns (teardown tests ask of each: are you still alive?)."""
    spawned, spawn = [], sim.spawn

    def recording_spawn(gen, name=""):
        spawned.append(spawn(gen, name))
        return spawned[-1]

    sim.spawn = recording_spawn
    return spawned


@pytest.fixture
def world():
    return World()


def proto_client(libos, codec_cls, requests, addr="10.0.0.2", port=6379):
    """Spawn-me closed loop against a ProtoServer speaking *codec_cls*:
    one Request, then its Response; returns the Responses."""
    codec = codec_cls()
    qd = yield from libos.socket()
    yield from libos.connect(qd, addr, port)
    responses = []
    for request in requests:
        yield from libos.blocking_push(
            qd, libos.sga_alloc(codec.encode_request(request)))
        replies = []
        while not replies:
            result = yield from libos.blocking_pop(qd)
            assert result.error is None, result.error
            replies = codec.feed_responses(result.sga.tobytes())
        responses.append(replies[0])
    yield from libos.close(qd)
    return responses


def chunk_client(libos, codec_cls, chunks, n_replies, addr="10.0.0.2",
                 port=6379):
    """Spawn-me: push pre-encoded byte chunks, then collect *n_replies*
    Responses (fewer if the server hangs up first)."""
    codec = codec_cls()
    qd = yield from libos.socket()
    yield from libos.connect(qd, addr, port)
    for chunk in chunks:
        yield from libos.blocking_push(qd, libos.sga_alloc(chunk))
    replies = []
    while len(replies) < n_replies:
        result = yield from libos.blocking_pop(qd)
        if result.error is not None:
            break  # server hung up on us
        replies.extend(codec.feed_responses(result.sga.tobytes()))
    yield from libos.close(qd)
    return replies
